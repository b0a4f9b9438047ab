"""Folner sets inside registered amenable subgroups, and visibility certificates.

An AmenableSubgroup is an embedding descriptor over an ambient group:
``whole`` (amenable ambient), ``center``, ``factor:<j>`` (amenable direct
factor), ``lamps`` (the lamp subgroup of a lamplighter) or ``trivial``.
Each embedding declares an increasing Folner family (intervals, boxes,
lamp blocks, the whole finite group) rather than searching generically;
`folner_set` walks the family in order, symmetrizes the candidate, and
verifies the invariance inequality |BF \\ F| < eps|F| with exact integer
counts before returning.

`certify_visibility` checks the meets-every-conjugate property
S ^ gamma intersects H for all gamma. Every embedding kind admitted here
is a normal subgroup, so conjugation fixes H and the property reduces to
S intersects H; an embedding that is not normal must not be admitted
without a check that searches over gamma.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from groupwalk.errors import BudgetError, SpecMismatchError
from groupwalk.groups import (
    CyclicGroup,
    DirectProduct,
    FreeAbelian,
    FreeGroup,
    GSet,
    Group,
    Lamplighter,
)

_MEMBER_SIZE_CAP = 250_000  # largest Folner family member we will materialize


@dataclass(frozen=True)
class AmenableSubgroup:
    """An amenable subgroup of `ambient` given by an embedding descriptor."""

    ambient: Group
    embedding: str

    def __post_init__(self):
        kind = self.embedding.split(":")[0]
        # every admitted kind is a normal subgroup; certify_visibility relies on it
        if kind not in ("whole", "center", "factor", "trivial", "lamps"):
            raise SpecMismatchError(f"unknown embedding {self.embedding!r}")
        if kind == "whole" and not self.ambient.is_amenable():
            raise SpecMismatchError(f"{self.ambient.spec_text()} is not amenable")
        if kind == "factor":
            if not isinstance(self.ambient, DirectProduct):
                raise SpecMismatchError("factor embedding needs a direct product")
            j = self._factor_index()
            if not (0 <= j < len(self.ambient.factors)):
                raise SpecMismatchError(f"no factor {j} in {self.ambient.spec_text()}")
            if not self.ambient.factors[j].is_amenable():
                raise SpecMismatchError(f"factor {j} is not amenable")
        if kind == "lamps" and not isinstance(self.ambient, Lamplighter):
            raise SpecMismatchError("lamps embedding needs a lamplighter ambient")

    def _factor_index(self) -> int:
        return int(self.embedding.split(":", 1)[1])

    def contains(self, x) -> bool:
        self.ambient.validate(x)
        kind = self.embedding.split(":")[0]
        if kind == "whole":
            return True
        if kind == "trivial":
            return x == self.ambient.identity
        if kind == "center":
            return self.ambient.is_central(x)
        if kind == "lamps":
            return x[1] == 0
        j = self._factor_index()
        return all(
            xi == f.identity
            for i, (f, xi) in enumerate(zip(self.ambient.factors, x))
            if i != j
        )

    def folner_member(self, m: int) -> GSet | None:
        """m-th member of the declared family (None once exhausted)."""
        if m < 0:
            raise SpecMismatchError("family index must be >= 0")
        kind = self.embedding.split(":")[0]
        if kind == "trivial":
            els = [self.ambient.identity] if m == 0 else None
        elif kind == "whole":
            els = _whole_family(self.ambient, m)
        elif kind == "center":
            els = _center_family(self.ambient, m)
        elif kind == "lamps":
            els = _lamp_blocks(m) if m == 0 or _lamp_block_size(m) <= _MEMBER_SIZE_CAP else None
        else:
            j = self._factor_index()
            inner = _whole_family(self.ambient.factors[j], m)
            if inner is None:
                els = None
            else:
                els = []
                for y in inner:
                    e = list(self.ambient.identity)
                    e[j] = y
                    els.append(tuple(e))
        if els is None:
            return None
        return GSet(self.ambient, frozenset(els))

    def describe(self) -> str:
        return f"{self.embedding} of {self.ambient.spec_text()}"


def _whole_family(group: Group, m: int):
    """m-th Folner set of the whole (amenable) group, intrinsic coordinates."""
    if isinstance(group, FreeAbelian):
        if (2 * m + 1) ** group.rank > _MEMBER_SIZE_CAP:
            return None
        return [tuple(v) for v in itertools.product(range(-m, m + 1), repeat=group.rank)]
    if isinstance(group, FreeGroup):  # amenable => rank 1
        return [(1,) * j if j >= 0 else (-1,) * (-j) for j in range(-m, m + 1)]
    if isinstance(group, CyclicGroup):
        return list(range(group.n)) if m == 0 else None
    if isinstance(group, Lamplighter):
        return _lamp_position_blocks(m)
    if isinstance(group, DirectProduct):
        parts = []
        for f in group.factors:
            p = _whole_family(f, m)
            if p is None:  # finite factor exhausted: stay at its last member
                p = _whole_family(f, 0)
            parts.append(p)
        size = 1
        for p in parts:
            size *= len(p)
        if size > _MEMBER_SIZE_CAP:
            return None
        return [tuple(c) for c in itertools.product(*parts)]
    raise SpecMismatchError(f"no Folner family for {group.spec_text()}")


def _center_family(group: Group, m: int):
    if isinstance(group, (FreeAbelian, CyclicGroup)):
        return _whole_family(group, m)
    if isinstance(group, FreeGroup):
        return _whole_family(group, m) if group.rank == 1 else ([group.identity] if m == 0 else None)
    if isinstance(group, Lamplighter):
        return [group.identity] if m == 0 else None
    if isinstance(group, DirectProduct):
        parts = []
        for f in group.factors:
            p = _center_family(f, m)
            if p is None:
                p = _center_family(f, 0)
            parts.append(p)
        size = 1
        for p in parts:
            size *= len(p)
        if size > _MEMBER_SIZE_CAP:
            return None
        return [tuple(c) for c in itertools.product(*parts)]
    raise SpecMismatchError(f"no center family for {group.spec_text()}")


def _lamp_block_size(m: int) -> int:
    return 2 ** (2 * m + 1)


def _lamp_blocks(m: int):
    """All lamp configurations supported in [-m, m], marker at 0."""
    positions = list(range(-m, m + 1))
    out = []
    for bits in itertools.product((0, 1), repeat=len(positions)):
        lamps = tuple(p for p, b in zip(positions, bits) if b)
        out.append((lamps, 0))
    return out


def _lamp_position_blocks(m: int):
    """Configurations in [-m, m] with marker anywhere in [-m, m]."""
    if _lamp_block_size(m) * (2 * m + 1) > _MEMBER_SIZE_CAP:
        return None
    blocks = _lamp_blocks(m)
    return [(lamps, pos) for lamps, _ in blocks for pos in range(-m, m + 1)]


def folner_set(H: AmenableSubgroup, B: GSet, eps) -> GSet:
    """Smallest declared-family member F (symmetrized) with |BF \\ F| < eps|F|.

    The inequality is verified with exact integer counts on every return;
    eps may be a Fraction, int or string accepted by Fraction.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise SpecMismatchError("eps must be > 0")
    g = H.ambient
    if isinstance(B, GSet) and B.group != g:
        raise SpecMismatchError("B lives on a different group")
    for b in B.elements:
        if not H.contains(b):
            raise SpecMismatchError(
                f"Rejected input: {g.element_to_text(b)} outside {H.describe()}"
            )
    if len(B) == 0:
        return GSet(g, frozenset([g.identity]))
    m = 0
    while True:
        member = H.folner_member(m)
        if member is None:
            raise BudgetError(
                f"Folner family of {H.describe()} exhausted at index {m} "
                f"without satisfying eps={eps}"
            )
        F = member.symmetrized()
        if _invariance_holds(g, B, F, eps):
            return F
        m += 1


def invariance_defect(g: Group, B: GSet, F: GSet) -> int:
    """|BF \\ F| as an exact integer."""
    BF = {g.mul(b, f) for b in B.elements for f in F.elements}
    return len(BF - F.elements)


def _invariance_holds(g: Group, B: GSet, F: GSet, eps: Fraction) -> bool:
    return invariance_defect(g, B, F) * eps.denominator < eps.numerator * len(F)


@dataclass(frozen=True)
class VisibilityCertificate:
    """Outcome of a meets-every-conjugate check for (S, H)."""

    group_text: str
    S_texts: tuple[str, ...]
    embedding: str
    verdict: str  # "pass" | "refuted"

    def to_json(self) -> str:
        return json.dumps(
            {
                "group": self.group_text,
                "S": list(self.S_texts),
                "subgroup": self.embedding,
                "verdict": self.verdict,
            },
            sort_keys=True,
        )


def certify_visibility(S: GSet, H: AmenableSubgroup) -> VisibilityCertificate:
    """Certify (or refute) that S meets every conjugate of H.

    Relies on H being normal, which holds for every kind that
    `AmenableSubgroup.__post_init__` admits (whole, trivial and center by
    definition, a direct factor of a product, the lamp subgroup as the
    kernel of the position map): then S meets every conjugate of H exactly
    when some x in S lies in H.
    """
    g = H.ambient
    if not isinstance(S, GSet) or len(S) == 0:
        raise SpecMismatchError("S must be a non-empty GSet")
    if S.group != g:
        raise SpecMismatchError("S lives on a different group")
    hit = any(H.contains(x) for x in S.elements)
    return VisibilityCertificate(
        g.spec_text(),
        tuple(g.element_to_text(x) for x in S.sorted_elements()),
        H.embedding,
        "pass" if hit else "refuted",
    )
