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
lost_mass ledger, never into renormalization. `build_measure` assembles it
on packed codes: every weight is an integer numerator over one denominator,
each F_i's codes come from `GSet.codes` (built from F_i's family by the
Folner search that found it, so F_i is never encoded, or encoded once where
the family has no codes), and one `_dedup` sums every record's codes. The
result has the bytes that adding the masses as Fractions gives, in both
modes.

Elements of R_i that are central in the ambient group skip the
conjugation stage entirely (their conjugate set is themselves), which
keeps the flagship presets exact and fast; only non-central elements are
conjugated by A_i, i times, each round capped at `product_cap` elements.
A capped round keeps a subset of the true set, and the truncation is
recorded per stage so the state can report through which stage the
conjugate sets are complete.

Each stage's Folner search starts where an earlier stage of the same
catalogue entry stopped: at the largest family index m of an earlier record
of that entry whose B is a subset of B_i, else at 0. Every member below that
m failed for (r.B, 1/r.i) at that record, and |BF \\ F| only grows with B while
|F|/i only shrinks as i grows, so those members fail at stage i too and the
warm search returns the cold search's F_i. The index comes from the records
alone, so a resumed run, which runs its stages again, starts each search at
the same member. The stage keeps the defect the search verified.

A checkpoint is resumed by running it again: `resume_construction` runs the
checkpoint's stages from stage 0 and continues only if they equal the
checkpoint's, so every resumed stage is one the stage rule builds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from groupwalk.amenable import AmenableSubgroup, certify_visibility, folner_search
from groupwalk.config import RunConfig
from groupwalk.detrng import CounterRng
from groupwalk.errors import BudgetError, SpecMismatchError
from groupwalk.groups import GSet, Group, enumerate_element, iterated_conjugate_set
from groupwalk.measures import SparseMeasure, _dedup, _dtype


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
    if not certify_visibility(S, H):
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
    m: int  # family index of F_i; not written by to_dict


@dataclass(frozen=True)
class ConstructionState:
    group: Group
    catalogue: VisibilityCatalogue
    alpha: AlphaSchedule
    A: GSet
    records: tuple[StageRecord, ...]
    # bound on each round's conjugate set when R_i is conjugated by A_i,
    # i times; a stage whose round exceeds it keeps a radius and is truncated
    product_cap: int = RunConfig.product_cap

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

    def to_dict(self) -> dict:
        """The checkpoint as plain JSON values; `construct` writes it under
        the "state" key as sorted-key JSON, and a resume compares against it."""
        g = self.group
        cat = {
            "seed": self.catalogue.seed,
            "entries": [
                {"S": e.S.to_texts(), "H": e.H.embedding}
                for e in self.catalogue.entries
            ],
        }
        return {
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
        }


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
    product_cap: int = RunConfig.product_cap,
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
    """Run stage i = stage+1: draw (R_i, H_i), build B_i, c_i, F_i, the defect and A_{i+1}."""
    g = state.group
    i = state.stage + 1
    idx = state.catalogue.draw_index(i)
    entry = state.catalogue.entries[idx]
    R, H = entry.S, entry.H

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

    B = GSet(g, frozenset(x for x in conjugates if H.contains(x))).symmetrized()
    c_i = enumerate_element(g, i)
    # members below an earlier same-entry m with a smaller B fail here too
    start = max(
        (r.m for r in state.records if r.entry_index == idx and r.B.elements <= B.elements),
        default=0,
    )
    try:
        F, m, defect = folner_search(H, B, Fraction(1, i), start)
    except BudgetError as exc:
        raise BudgetError(str(exc), stage=i) from exc

    new_A = GSet(
        g,
        state.A.elements | F.elements | frozenset([c_i, g.inv(c_i)]),
        state.A.truncated or truncated,
    )
    rec = StageRecord(
        i=i, entry_index=idx, c=c_i, B=B, F=F, defect=defect, truncated=truncated, m=m
    )
    return replace(state, A=new_A, records=state.records + (rec,))


def run_construction(state: ConstructionState, k: int) -> ConstructionState:
    """Advance the state through stage k (no-op if already there)."""
    if k < 1:
        raise SpecMismatchError("k must be >= 1")
    while state.stage < k:
        state = construction_step(state)
    return state


def resume_construction(state: ConstructionState, checkpoint: str, k: int) -> ConstructionState:
    """The stage-0 `state` run through stage k, resuming the n-stage `checkpoint`.

    `checkpoint` is JSON text of a `to_dict`, bare or under the "state" key
    that `construct` writes. Its settings must equal `state`'s (older checkpoints'
    null catalogue keys dropped) and n must be at most k. The n stages are run
    again and must equal its records, A and A_truncated, so a resume costs a
    direct run and continues only what the stage rule builds. Anything else is
    a SpecMismatchError naming the key (for records, the stage) that differs.
    """
    want = state.to_dict()
    try:
        have = json.loads(checkpoint)
        if isinstance(have, dict):
            have = have.get("state", have)
        cat = {key: v for key, v in have["catalogue"].items() if v is not None}
        cat["entries"] = [
            {key: v for key, v in e.items() if v is not None} for e in cat.get("entries", [])
        ]
        for key in ("format", "group", "catalogue", "alpha", "product_cap"):
            value = cat if key == "catalogue" else have[key]
            if value != want[key]:
                raise SpecMismatchError(
                    f"checkpoint {key} {value} differs from the configured {want[key]}"
                )
        records, A, A_truncated = have["records"], have["A"], have["A_truncated"]
    except KeyError as exc:
        raise SpecMismatchError(f"checkpoint has no {exc.args[0]!r} key") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise SpecMismatchError(f"malformed checkpoint: {exc}") from None
    if not isinstance(records, list):
        raise SpecMismatchError("checkpoint records is not a list")
    if len(records) > k:
        raise SpecMismatchError(f"checkpoint has {len(records)} stages, more than the {k} configured")
    done = run_construction(state, len(records)) if records else state
    built = done.to_dict()
    for j, (record, rebuilt) in enumerate(zip(records, built["records"]), 1):
        if record != rebuilt:
            raise SpecMismatchError(f"checkpoint records differ from the stage rule's at stage {j}")
    for key, value in (("A", A), ("A_truncated", A_truncated)):
        if value != built[key]:
            raise SpecMismatchError(f"checkpoint {key} differs from the stage rule's")
    return run_construction(done, k)


def build_measure(state: ConstructionState, mode: str = "exact") -> SparseMeasure:
    """Assemble nu_k from the completed stages; tail mass goes to the ledger.

    Every weight is an integer numerator over one denominator D, the lcm
    of every alpha_i/3 and alpha_i/(3|F_i|); the numerators sum to at most
    D, so they are int64 when D is below 2^63 (`measures._dtype`). Each
    record's codes (c_i, c_i^-1, then F_i, read from `F.codes`) are summed
    with their numerators by one `_dedup`; atoms that do not encode go to
    the side dict in first-seen order. Exact mode divides by G = gcd(D,
    every sum), so `_den` = D/G is the lcm of the reduced masses'
    denominators; float mode gives each atom n/D, which int division rounds
    correctly, as float(Fraction(n, D)) does. Each distinct atom is
    validated once.
    """
    if state.stage < 1:
        raise SpecMismatchError("need at least one completed stage")
    g = state.group
    codec = g.codec()
    weights = [(state.alpha.alpha(r.i) / 3, len(r.F)) for r in state.records]
    D = math.lcm(*(w.denominator for w, _ in weights), *((w / n).denominator for w, n in weights))
    dtype = _dtype("exact", D)
    code_parts, num_parts, loose_codes, loose_nums, side = [], [], [], [], {}

    def place(xs, num: int) -> None:
        for x in xs:
            c = None if codec is None else codec.encode_one(x)
            if c is None:
                side[x] = side.get(x, 0) + num
            else:
                loose_codes.append(c)
                loose_nums.append(num)

    pairs = [(r.c, g.inv(r.c)) for r in state.records]
    atoms = set().union(*pairs, *(r.F.elements for r in state.records))
    for x in atoms:
        g.validate(x)
    for rec, c_pair, (w, n) in zip(state.records, pairs, weights):
        place(c_pair, (w * D).numerator)
        lam = (w / n * D).numerator
        if rec.F.codes is None:
            place(rec.F.elements, lam)
        else:
            code_parts.append(rec.F.codes)
            num_parts.append(np.full(n, lam, dtype=dtype))
    code_parts.append(np.array(loose_codes, dtype=np.uint64))
    num_parts.append(np.array(loose_nums, dtype=dtype))
    codes, nums = _dedup(np.concatenate(code_parts), np.concatenate(num_parts))
    lost = state.alpha.tail(state.stage)
    if mode == "exact":
        G = math.gcd(D, *nums.tolist(), *side.values())
        side = {x: v // G for x, v in side.items()}
        return SparseMeasure._from_pool(g, codes, nums // G, side, lost, "exact", D // G)
    masses = np.array([v / D for v in nums.tolist()], dtype=np.float64)
    side = {x: v / D for x, v in side.items()}
    return SparseMeasure._from_pool(g, codes, masses, side, float(lost), mode)
