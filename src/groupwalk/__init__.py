"""Sparse random-walk measures on computable groups.

Builds symmetric sub-probability measures from a Folner-set schedule on a
registered catalogue of finite target sets, convolves them at scale with a
lost-mass ledger, and runs total-variation diagnostics on the resulting
random walks.
"""

from groupwalk.errors import BudgetError, GroupwalkError, SpecMismatchError
from groupwalk.groups import (
    CyclicGroup,
    DirectProduct,
    FreeAbelian,
    FreeGroup,
    GSet,
    Group,
    Lamplighter,
    conjugate_set,
    enumerate_element,
    parse_group,
    product_power,
)
from groupwalk.measures import (
    SparseMeasure,
    convolve,
    convolve_reference,
    delta,
    tv_distance,
    uniform,
)
from groupwalk.amenable import AmenableSubgroup, certify_visibility, folner_set
from groupwalk.construction import (
    AlphaSchedule,
    ConstructionState,
    VisibilityCatalogue,
    build_measure,
    construction_step,
    make_entry,
    new_state,
    resume_construction,
    run_construction,
)
from groupwalk.diagnostics import (
    TVCurve,
    TVReport,
    control_experiment,
    nondisjointness_report,
    tv_curve,
)
from groupwalk.walk import (
    DecompositionReport,
    WalkModel,
    empirical_increment_law,
    estimate_M,
)

__all__ = [
    "BudgetError",
    "GroupwalkError",
    "SpecMismatchError",
    "Group",
    "FreeGroup",
    "FreeAbelian",
    "CyclicGroup",
    "DirectProduct",
    "Lamplighter",
    "GSet",
    "enumerate_element",
    "product_power",
    "conjugate_set",
    "parse_group",
    "SparseMeasure",
    "delta",
    "uniform",
    "convolve",
    "convolve_reference",
    "tv_distance",
    "AmenableSubgroup",
    "folner_set",
    "certify_visibility",
    "AlphaSchedule",
    "VisibilityCatalogue",
    "make_entry",
    "ConstructionState",
    "new_state",
    "construction_step",
    "run_construction",
    "resume_construction",
    "build_measure",
    "WalkModel",
    "empirical_increment_law",
    "estimate_M",
    "DecompositionReport",
    "tv_curve",
    "TVCurve",
    "TVReport",
    "nondisjointness_report",
    "control_experiment",
]
