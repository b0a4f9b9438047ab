"""Shipped experiment presets.

Each preset fixes a group, a catalogue of (S, H) pairs and a stage count.
`f2-control` is not a construction preset at all — it is the free-group
control walk and is handled by `diagnostics.control_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass

from groupwalk.amenable import AmenableSubgroup
from groupwalk.construction import (
    AlphaSchedule,
    ConstructionState,
    VisibilityCatalogue,
    make_entry,
    new_state,
)
from groupwalk.errors import SpecMismatchError
from groupwalk.groups import GSet, parse_group


@dataclass(frozen=True)
class Preset:
    name: str
    group_text: str
    catalogue: tuple[tuple[tuple[str, ...], str], ...]  # (S texts, embedding)
    stages: int
    alpha: str = "harmonic"


PRESETS: dict[str, Preset] = {
    "f2xz": Preset(
        name="f2xz",
        group_text="product(free(2), free-abelian(1))",
        catalogue=(((("(e|(1))",)), "center"),),
        stages=32,
    ),
    "z-amenable": Preset(
        name="z-amenable",
        group_text="free-abelian(1)",
        catalogue=(((("(1)",)), "whole"),),
        stages=50,
    ),
    # the free-group control is a plain SRW, not a construction: no catalogue
    "f2-control": Preset(
        name="f2-control",
        group_text="free(2)",
        catalogue=(),
        stages=0,
    ),
}

CONTROL_ALIASES = {
    "free-group-srw": "free-group-srw",
    "f2-control": "free-group-srw",
    "amenable-sanity": "amenable-sanity",
    "z-amenable": "amenable-sanity",
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise SpecMismatchError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


def preset_catalogue(name: str, seed: int) -> VisibilityCatalogue:
    p = get_preset(name)
    if not p.catalogue:
        raise SpecMismatchError(f"preset {name!r} is a control; it has no catalogue")
    g = parse_group(p.group_text)
    entries = []
    for s_texts, embedding in p.catalogue:
        S = GSet.from_texts(g, s_texts)
        H = AmenableSubgroup(g, embedding)
        entries.append(make_entry(S, H))
    return VisibilityCatalogue(tuple(entries), seed=seed)


def preset_state(
    name: str,
    seed: int,
    stages: int | None = None,
    product_cap: int = 1_000_000,
) -> ConstructionState:
    """Build and run a preset construction through its stage budget."""
    from groupwalk.construction import run_construction

    p = get_preset(name)
    cat = preset_catalogue(name, seed)
    alpha = AlphaSchedule(p.alpha)
    state = new_state(parse_group(p.group_text), cat, alpha, product_cap=product_cap)
    return run_construction(state, stages if stages is not None else p.stages)
