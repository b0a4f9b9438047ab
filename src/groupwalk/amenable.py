"""Folner sets inside registered amenable subgroups, and the visibility check.

An AmenableSubgroup is an embedding descriptor over an ambient group:
``whole`` (amenable ambient), ``center``, ``factor:<j>`` (amenable direct
factor), ``lamps`` (the lamp subgroup of a lamplighter) or ``trivial``.
Each embedding declares an increasing Folner family by one rule,
`_family`, with membership by the same rule in `_contains`:

- on a direct product the family is the product of per-factor families:
  ``factor:<j>`` is ``whole`` at factor j and ``trivial`` at every other
  factor, and ``whole``, ``center`` and ``trivial`` apply factor by factor;
- on any other group, ``center`` is ``whole`` when every generator is
  central, else ``trivial``;
- member m of ``whole`` is the interval or box [-m, m]^d on Z^d and the
  rank-1 free group, and lamps lit in [-m, m] with the marker in [-m, m]
  on the lamplighter; ``lamps`` keeps the marker at 0;
- a finite subgroup (``trivial``, a cyclic group) is its own member at
  every m;
- a member is None only when it would pass `_MEMBER_SIZE_CAP` elements,
  which is checked before the member is built, so a family past the cap
  ends there.

Every family is symmetric except the lamplighter's ``whole``, whose
inverses move the lamps by the marker; `_symmetric` declares that by the
same per-factor rule, and a property test checks it against the group law.
`folner_search` walks the family in order from a given member, symmetrizes
the candidate only when its family is not declared symmetric, and verifies
the invariance inequality |BF \\ F| < eps|F| with exact integer counts
before returning the member, its index and the defect it counted.
`folner_set` starts at member 0. A later start is sound when every member
below it is known to fail for (B, eps): that is so when an earlier search
stopped there for some B' inside B and some eps' >= eps, because |BF \\ F|
only grows with B and eps|F| only shrinks with eps. The construction starts
each stage's search that way (see `construction`).

`invariance_defect` counts |BF \\ F| on the group's packed codes (see
`groupwalk.codecs`) when the group has a codec that encodes every element of
F. F is encoded once per set (`GSet.codes`), so the search, the
construction's `build_measure` and any re-check share one encoding. The
count is one codec `mul` of each b's code by F's codes, then
|BF \\ F| = |BF u F| - |F| from one sort. A product the codec flags, and
every product of a b that does not encode, is recomputed with the group
law; it joins the codes when it encodes, else it lies outside F and is
counted once.
A group without a codec, or an F with an element past the codec's fields (a
lamp outside [-23, 23], a free word past the codec's length, a coordinate
past its field), is counted with the group law on sets. The route follows
from the inputs alone, and both give the same integer.

`certify_visibility` decides the meets-every-conjugate property
S ^ gamma intersects H for all gamma, and returns it as a bool. Every
embedding kind admitted here is a normal subgroup, so conjugation fixes H
and the property reduces to S intersects H; an embedding that is not
normal must not be admitted without a check that searches over gamma.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from groupwalk.errors import BudgetError, SpecMismatchError
from groupwalk.groups import (
    CyclicGroup,
    DirectProduct,
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
        g, kind = self.ambient, self.embedding.split(":")[0]
        # every admitted kind is a normal subgroup; certify_visibility relies on it
        if kind not in ("whole", "center", "factor", "trivial", "lamps"):
            raise SpecMismatchError(f"unknown embedding {self.embedding!r}")
        if kind == "whole" and not g.is_amenable():
            raise SpecMismatchError(f"{g.spec_text()} is not amenable")
        if kind == "factor":
            if not isinstance(g, DirectProduct):
                raise SpecMismatchError("factor embedding needs a direct product")
            kinds = _factor_kinds(g, self.embedding)
            if "whole" not in kinds:
                j = self.embedding.partition(":")[2]
                raise SpecMismatchError(f"no factor {j} in {g.spec_text()}")
            if not g.factors[kinds.index("whole")].is_amenable():
                raise SpecMismatchError(f"factor {kinds.index('whole')} is not amenable")
        if kind == "lamps" and not isinstance(g, Lamplighter):
            raise SpecMismatchError("lamps embedding needs a lamplighter ambient")

    def contains(self, x) -> bool:
        self.ambient.validate(x)
        return _contains(self.ambient, self.embedding, x)

    def folner_member(self, m: int) -> GSet | None:
        """m-th member of the declared family (None past the size cap)."""
        if m < 0:
            raise SpecMismatchError("family index must be >= 0")
        els = _family(self.ambient, self.embedding, m)
        return None if els is None else GSet(self.ambient, frozenset(els))

    def describe(self) -> str:
        return f"{self.embedding} of {self.ambient.spec_text()}"


def _factor_kinds(g: DirectProduct, kind: str) -> list[str]:
    """The kind of each factor of g: `factor:j` is `whole` at j and `trivial`
    elsewhere; every other kind applies factor by factor."""
    if kind.startswith("factor:"):
        j = int(kind.split(":", 1)[1])
        return ["whole" if i == j else "trivial" for i in range(len(g.factors))]
    return [kind] * len(g.factors)


def _leaf_kind(g: Group, kind: str) -> str:
    """`center` of a non-product family is `whole` when every generator is
    central, else `trivial`."""
    if kind == "center":
        return "whole" if all(map(g.is_central, g.generators())) else "trivial"
    return kind


def _contains(g: Group, kind: str, x) -> bool:
    if isinstance(g, DirectProduct):
        return all(map(_contains, g.factors, _factor_kinds(g, kind), x))
    kind = _leaf_kind(g, kind)
    if kind == "trivial":
        return x == g.identity
    return kind == "whole" or x[1] == 0  # lamps: marker at 0


def _symmetric(g: Group, kind: str) -> bool:
    """Whether every member of the `kind` family of g is declared symmetric:
    every kind but the lamplighter's `whole`, whose inverses move the lamps
    by the marker, applied factor by factor on a direct product."""
    if isinstance(g, DirectProduct):
        return all(map(_symmetric, g.factors, _factor_kinds(g, kind)))
    return not (isinstance(g, Lamplighter) and _leaf_kind(g, kind) == "whole")


def _family(g: Group, kind: str, m: int):
    """Elements of the m-th member of the `kind` family of g, or None when it
    would pass `_MEMBER_SIZE_CAP`; every size is checked before the member
    is built."""
    if isinstance(g, DirectProduct):
        parts = [_family(f, k, m) for f, k in zip(g.factors, _factor_kinds(g, kind))]
        if any(p is None for p in parts) or math.prod(map(len, parts)) > _MEMBER_SIZE_CAP:
            return None
        return list(itertools.product(*parts))
    kind = _leaf_kind(g, kind)
    if kind == "trivial":
        return [g.identity]
    if isinstance(g, CyclicGroup):
        return list(range(g.n))
    side = range(-m, m + 1)
    if isinstance(g, Lamplighter):
        # lamps lit in [-m, m]; the marker at 0 (lamps) or anywhere in [-m, m]
        markers = (0,) if kind == "lamps" else side
        if 2 ** len(side) * len(markers) > _MEMBER_SIZE_CAP:
            return None
        bits = itertools.product((0, 1), repeat=len(side))
        lit = [tuple(itertools.compress(side, b)) for b in bits]
        return [(lamps, pos) for lamps in lit for pos in markers]
    # free abelian (a box) or the rank-1 free group (an interval)
    if len(side) ** g.rank > _MEMBER_SIZE_CAP:
        return None
    if isinstance(g, FreeGroup):
        return [(1,) * j if j >= 0 else (-1,) * -j for j in side]
    return list(itertools.product(side, repeat=g.rank))


def folner_search(H: AmenableSubgroup, B: GSet, eps, start: int = 0) -> tuple[GSet, int, int]:
    """(F, m, defect): the first declared-family member F = member m
    (symmetrized), m >= start, with |BF \\ F| < eps|F|, and that defect.

    The inequality is verified with exact integer counts on every return;
    eps may be a Fraction, int or string accepted by Fraction. An empty B
    gives ({e}, 0, 0). A `start` above 0 returns the smallest such member
    only when every member below `start` is known to fail for (B, eps).
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
        return GSet(g, frozenset([g.identity])), 0, 0
    symmetric = _symmetric(g, H.embedding)
    m = start
    while True:
        member = H.folner_member(m)
        if member is None:
            raise BudgetError(
                f"Folner family of {H.describe()} passes {_MEMBER_SIZE_CAP} elements "
                f"at index {m} without satisfying eps={eps}"
            )
        F = member if symmetric else member.symmetrized()
        defect = invariance_defect(g, B, F)
        if defect * eps.denominator < eps.numerator * len(F):
            return F, m, defect
        m += 1


def folner_set(H: AmenableSubgroup, B: GSet, eps) -> GSet:
    """Smallest declared-family member F (symmetrized) with |BF \\ F| < eps|F|,
    searched from member 0."""
    return folner_search(H, B, eps)[0]


def invariance_defect(g: Group, B: GSet, F: GSet) -> int:
    """|BF \\ F| as an exact integer.

    Counted on `F.codes`, encoded once per set, when the group has a codec
    that encodes every element of F, else with the group law on sets. On codes,
    |BF \\ F| = |BF u F| - |F|, with one `mul` of b's code by F's codes per
    b and one sort. A row `mul` flags, and every row of a b that does not
    encode, is multiplied by the group law and joins the codes when its
    product encodes, else it lies outside F (every element of F encodes) and
    is counted once in a set.
    """
    F_codes = F.codes
    if F_codes is None:
        BF = {g.mul(b, f) for b in B.elements for f in F.elements}
        return len(BF - F.elements)
    codec, fs = g.codec(), list(F.elements)
    parts, extra, outside = [F_codes], [], set()
    for b in B.elements:
        b_code = codec.encode_one(b)
        if b_code is None:
            out, ok = F_codes, np.zeros(len(F_codes), dtype=bool)
        else:
            out, ok = codec.mul(np.array([b_code], dtype=np.uint64), F_codes)
        parts.append(out[ok])
        for j in np.flatnonzero(~ok):
            x = g.mul(b, fs[j])
            c = codec.encode_one(x)
            if c is None:
                outside.add(x)
            else:
                extra.append(c)
    parts.append(np.array(extra, dtype=np.uint64))
    union = np.sort(np.concatenate(parts))  # BF u F, with repeats
    distinct = len(union) - int(np.count_nonzero(union[1:] == union[:-1]))
    return distinct - len(fs) + len(outside)


def certify_visibility(S: GSet, H: AmenableSubgroup) -> bool:
    """Whether S meets every conjugate of H.

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
    return any(H.contains(x) for x in S.elements)
