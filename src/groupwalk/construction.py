"""The iterative thickening pipeline producing the mixing measure.

Starting from A_1 = {e}, stage i draws a catalogue entry (R_i, H_i),
conjugates R_i by A_i, i times over (the same set as conjugating by the
i-fold product set of A_i, which is never listed), intersects with H_i,
symmetrizes, asks the amenable toolkit for a Folner set F_i of quality
1/i, and grows A_{i+1} = A_i union F_i union {c_i, c_i^-1} where
(c_i) is the spiral enumeration of the whole group. After k stages the
truncated measure

    nu_k = sum_{i<=k} (alpha_i / 3) (delta_{c_i} + delta_{c_i^-1} + lambda_{F_i})

is assembled exactly; its missing tail sum_{i>k} alpha_i goes to the
lost_mass ledger, never into renormalization.

Elements of R_i that are central in the ambient group skip the
conjugation stage entirely (their conjugate set is themselves), which
keeps the flagship presets exact and fast; only non-central elements are
conjugated by A_i, i times, each round capped at `product_cap` elements.
A capped round keeps a subset of the true set, and the truncation is
recorded per stage so the state can report through which stage the
conjugate sets are complete.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from groupwalk.amenable import AmenableSubgroup, certify_visibility, folner_set, invariance_defect
from groupwalk.detrng import CounterRng
from groupwalk.errors import BudgetError, SpecMismatchError
from groupwalk.groups import GSet, Group, enumerate_element, iterated_conjugate_set, parse_group
from groupwalk.measures import SparseMeasure

_DEFAULT_PRODUCT_CAP = 10**6


@dataclass(frozen=True)
class AlphaSchedule:
    """Stage-weight rule. `harmonic` is 1/(i(i+1)); `geometric` is 2^-i.

    The harmonic rule has tail P(K >= n) = 1/n, so records of the sampled
    stage sequence outrun their index infinitely often almost surely
    (infinite-mean tails); the geometric rule deliberately fails that:
    its tail 2^-(n-1) is summable, so K_l > l happens only finitely often.
    """

    name: str = "harmonic"

    def __post_init__(self):
        if self.name not in ("harmonic", "geometric"):
            raise SpecMismatchError(f"unknown alpha rule {self.name!r}")

    def alpha(self, i: int) -> Fraction:
        if i < 1:
            raise SpecMismatchError("stage index must be >= 1")
        if self.name == "harmonic":
            return Fraction(1, i * (i + 1))
        return Fraction(1, 2**i)

    def partial_sum(self, k: int) -> Fraction:
        if self.name == "harmonic":
            return 1 - Fraction(1, k + 1)
        return 1 - Fraction(1, 2**k)

    def tail(self, k: int) -> Fraction:
        return 1 - self.partial_sum(k)

    def sample_k(self, u: float) -> int:
        """Inverse-CDF sample of the stage index from one uniform in [0,1)."""
        safe = max(1e-18, 1.0 - u)
        if self.name == "harmonic":
            # P(K >= n) = 1/n  =>  K = ceil(1/(1-u)) - 1, clamped to >= 1
            return max(1, int(np.ceil(1.0 / safe)) - 1)
        return max(1, int(np.ceil(-np.log2(safe))))

    def sample_k_array(self, u: np.ndarray) -> np.ndarray:
        safe = np.maximum(1e-18, 1.0 - u)
        if self.name == "harmonic":
            k = np.ceil(1.0 / safe) - 1.0
        else:
            k = np.ceil(-np.log2(safe))
        return np.maximum(1.0, k).astype(np.int64)


@dataclass(frozen=True)
class CatalogueEntry:
    """An (S, H) pair the schedule can draw; build it with `make_entry`."""

    S: GSet
    H: AmenableSubgroup


def make_entry(S: GSet, H: AmenableSubgroup) -> CatalogueEntry:
    """The entry (S, H), refused unless S meets every conjugate of H."""
    if certify_visibility(S, H).verdict != "pass":
        raise SpecMismatchError(f"set is not visible through {H.describe()}")
    return CatalogueEntry(S, H)


@dataclass(frozen=True)
class VisibilityCatalogue:
    """Finite certified catalogue plus a seeded uniform schedule sampler."""

    entries: tuple[CatalogueEntry, ...]
    seed: int

    def __post_init__(self):
        if not self.entries:
            raise SpecMismatchError("catalogue must be non-empty")

    def _rng(self) -> CounterRng:
        return CounterRng(self.seed, "schedule")

    def draw_index(self, i: int) -> int:
        """Deterministic i.i.d. draw for stage i (identical seed => identical)."""
        if i < 1:
            raise SpecMismatchError("stage index must be >= 1")
        u = self._rng().uniform_at(i)
        return min(int(u * len(self.entries)), len(self.entries) - 1)

    def draw_index_array(self, stages: np.ndarray) -> np.ndarray:
        """Vectorized draw_index over an array of stage indices."""
        u = self._rng().uniforms_at(stages)
        return np.minimum((u * len(self.entries)).astype(np.int64), len(self.entries) - 1)


@dataclass(frozen=True)
class StageRecord:
    i: int
    entry_index: int
    c: object  # enumerated element c_i
    B: GSet  # symmetrized conjugate set intersected with H_i
    F: GSet
    defect: int  # |B F \ F|, exact
    truncated: bool  # any conjugation round at this stage was capped


@dataclass(frozen=True)
class ConstructionState:
    group: Group
    catalogue: VisibilityCatalogue
    alpha: AlphaSchedule
    A: GSet
    records: tuple[StageRecord, ...]
    # bound on each round's conjugate set when R_i is conjugated by A_i,
    # i times; a stage whose round exceeds it keeps a radius and is truncated
    product_cap: int = _DEFAULT_PRODUCT_CAP

    @property
    def stage(self) -> int:
        return len(self.records)

    def honest_through(self) -> int:
        """Largest n such that no truncation occurred at any stage <= n."""
        n = 0
        for rec in self.records:
            if rec.truncated:
                break
            n = rec.i
        return n

    def to_json(self) -> str:
        g = self.group
        cat = {
            "seed": self.catalogue.seed,
            "entries": [
                {"S": e.S.to_texts(), "H": e.H.embedding}
                for e in self.catalogue.entries
            ],
        }
        return json.dumps(
            {
                "format": "groupwalk-state 1",
                "group": g.spec_text(),
                "alpha": self.alpha.name,
                "catalogue": cat,
                "product_cap": self.product_cap,
                "A": self.A.to_texts(),
                "A_truncated": self.A.truncated,
                "records": [
                    {
                        "i": r.i,
                        "entry": r.entry_index,
                        "c": g.element_to_text(r.c),
                        "B": r.B.to_texts(),
                        "F": r.F.to_texts(),
                        "F_truncated": r.F.truncated,
                        "defect": r.defect,
                        "truncated": r.truncated,
                    }
                    for r in self.records
                ],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "ConstructionState":
        d = json.loads(text)
        if d.get("format") != "groupwalk-state 1":
            raise SpecMismatchError("not a groupwalk-state v1 payload")
        g = parse_group(d["group"])
        cat_doc = d["catalogue"]
        # older checkpoints also write a null schedule field here, and a null
        # "radius" per entry (ignored); a non-null setting this code does not
        # read must stop the resume rather than be silently dropped
        unread = sorted(
            k for k, v in cat_doc.items() if k not in ("seed", "entries") and v is not None
        )
        if unread:
            raise SpecMismatchError(f"checkpoint catalogue sets unsupported keys {unread}")
        cat = catalogue_from_texts(
            g, [(e["S"], e["H"]) for e in cat_doc["entries"]], cat_doc["seed"]
        )
        records = tuple(
            StageRecord(
                i=r["i"],
                entry_index=r["entry"],
                c=g.element_from_text(r["c"]),
                B=GSet.from_texts(g, r["B"]),
                F=GSet(g, frozenset(g.element_from_text(t) for t in r["F"]), r["F_truncated"]),
                defect=r["defect"],
                truncated=r["truncated"],
            )
            for r in d["records"]
        )
        A = GSet(g, frozenset(g.element_from_text(t) for t in d["A"]), d["A_truncated"])
        return ConstructionState(
            group=g,
            catalogue=cat,
            alpha=AlphaSchedule(d["alpha"]),
            A=A,
            records=records,
            product_cap=d["product_cap"],
        )


def catalogue_from_texts(g: Group, entries, seed: int) -> VisibilityCatalogue:
    """The catalogue of `(S texts, embedding)` pairs on g, each entry certified."""
    return VisibilityCatalogue(
        tuple(
            make_entry(GSet.from_texts(g, s_texts), AmenableSubgroup(g, embedding))
            for s_texts, embedding in entries
        ),
        seed,
    )


def new_state(
    group: Group,
    catalogue: VisibilityCatalogue,
    alpha: AlphaSchedule | None = None,
    product_cap: int = _DEFAULT_PRODUCT_CAP,
) -> ConstructionState:
    for e in catalogue.entries:
        if e.S.group != group or e.H.ambient != group:
            raise SpecMismatchError("catalogue entry lives on a different group")
    return ConstructionState(
        group=group,
        catalogue=catalogue,
        alpha=alpha or AlphaSchedule(),
        A=GSet(group, frozenset([group.identity])),
        records=(),
        product_cap=product_cap,
    )


def construction_step(state: ConstructionState) -> ConstructionState:
    """Run stage i = stage+1: draw (R_i, H_i), build B_i, F_i, grow A."""
    g = state.group
    i = state.stage + 1
    idx = state.catalogue.draw_index(i)
    entry = state.catalogue.entries[idx]
    R, H = entry.S, entry.H
    c_i = enumerate_element(g, i)

    central = [r for r in R.elements if g.is_central(r)]
    rest = [r for r in R.elements if not g.is_central(r)]
    truncated = False
    conjugates = set(central)
    if rest:
        try:
            C = iterated_conjugate_set(GSet(g, frozenset(rest)), state.A, i, state.product_cap)
        except BudgetError as exc:
            raise BudgetError(str(exc), stage=i) from exc
        truncated = C.truncated
        conjugates |= C.elements

    B0 = frozenset(x for x in conjugates if H.contains(x))
    B = GSet(g, B0).symmetrized()
    try:
        F = folner_set(H, B, Fraction(1, i))
    except BudgetError as exc:
        raise BudgetError(str(exc), stage=i) from exc
    defect = invariance_defect(g, B, F)

    new_A = GSet(
        g,
        state.A.elements | F.elements | frozenset([c_i, g.inv(c_i)]),
        state.A.truncated or truncated,
    )
    rec = StageRecord(
        i=i, entry_index=idx, c=c_i, B=B, F=F, defect=defect, truncated=truncated
    )
    return replace(state, A=new_A, records=state.records + (rec,))


def run_construction(state: ConstructionState, k: int) -> ConstructionState:
    """Advance the state through stage k (no-op if already there)."""
    if k < 1:
        raise SpecMismatchError("k must be >= 1")
    while state.stage < k:
        state = construction_step(state)
    return state


def build_measure(state: ConstructionState, mode: str = "exact") -> SparseMeasure:
    """Assemble nu_k from the completed stages; tail mass goes to the ledger."""
    if state.stage < 1:
        raise SpecMismatchError("need at least one completed stage")
    g = state.group
    acc: dict = {}

    def add(x, w: Fraction):
        acc[x] = acc.get(x, Fraction(0)) + w

    for rec in state.records:
        w = state.alpha.alpha(rec.i) / 3
        add(rec.c, w)
        add(g.inv(rec.c), w)
        lam = w / len(rec.F)
        for f in rec.F.elements:
            add(f, lam)
    lost = state.alpha.tail(state.stage)
    if mode == "exact":
        return SparseMeasure.from_items(g, acc, "exact", lost_mass=lost)
    return SparseMeasure.from_items(
        g, {x: float(m) for x, m in acc.items()}, "float", lost_mass=float(lost)
    )
