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
  which is checked before the member is built (`_member_size`), so a
  family past the cap ends there.

`_family_codes` follows the same rule on the group's packed codes (see
`groupwalk.codecs`) and returns member m as an ascending uint64 array
without making an element: a box, an interval, a range of residues or a
grid of lamp patterns by markers, and on a direct product the factors'
codes joined field by field. It raises BudgetError past the cap, returns
None only when the group has no codec or some element of the member leaves
the codec's fields, and a property test checks it against the sorted
encodes of `_family`.

Every family is symmetric except the lamplighter's ``whole``, whose
inverses move the lamps by the marker; `_symmetric` declares that by the
same per-factor rule, and a property test checks it against the group law.
`folner_search` walks the family in order from a given member and verifies
the invariance inequality |BF \\ F| < eps|F| with exact integer counts
before returning the member, its index and the defect it counted. A
member of a declared-symmetric family with codes is counted on its codes,
and only the member returned is built as elements, carrying those codes,
so nothing is encoded. Every other member (the lamplighter's ``whole``,
which is symmetrized first, a group without a codec, a member past the
codec's fields) is built as elements and counted by `invariance_defect`.
`folner_set` starts at member 0. A later start is sound when every member
below it is known to fail for (B, eps): that is so when an earlier search
stopped there for some B' inside B and some eps' >= eps, because |BF \\ F|
only grows with B and eps|F| only shrinks with eps. The construction starts
each stage's search that way (see `construction`).

`invariance_defect` counts |BF \\ F| on the group's packed codes when the
group has a codec that encodes every element of F. F's codes are made once
per set (`GSet.codes`, or carried from the family by the search), so the
search, the construction's `build_measure` and any re-check share them.
The count (`_defect_on_codes`) multiplies the b's codes by F's codes, a
few b's a codec `mul`; the products that `searchsorted` does not find
among F's ascending codes are BF \\ F, counted once each. A product the
codec flags, and every product of a b that does not encode, is recomputed
with the group law on the element that f's code decodes to; it joins the
products when it encodes, else it lies outside F and is counted once.
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
from groupwalk.measures import _BLOCK_ROWS

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


def _member_size(g: Group, kind: str, m: int) -> int:
    """|member m| of the `kind` family of g, by `_family`'s per-factor rule."""
    if isinstance(g, DirectProduct):
        return math.prod(_member_size(f, k, m) for f, k in zip(g.factors, _factor_kinds(g, kind)))
    kind = _leaf_kind(g, kind)
    if kind == "trivial":
        return 1
    if isinstance(g, CyclicGroup):
        return g.n
    if isinstance(g, Lamplighter):
        return 2 ** (2 * m + 1) * (1 if kind == "lamps" else 2 * m + 1)
    return (2 * m + 1) ** g.rank


def _family(g: Group, kind: str, m: int):
    """Elements of the m-th member of the `kind` family of g, or None when it
    would pass `_MEMBER_SIZE_CAP`; the size is checked before the member is
    built."""
    if _member_size(g, kind, m) > _MEMBER_SIZE_CAP:
        return None
    if isinstance(g, DirectProduct):
        kinds = _factor_kinds(g, kind)
        return list(itertools.product(*(_family(f, k, m) for f, k in zip(g.factors, kinds))))
    kind = _leaf_kind(g, kind)
    if kind == "trivial":
        return [g.identity]
    if isinstance(g, CyclicGroup):
        return list(range(g.n))
    side = range(-m, m + 1)
    if isinstance(g, Lamplighter):
        # lamps lit in [-m, m]; the marker at 0 (lamps) or anywhere in [-m, m]
        markers = (0,) if kind == "lamps" else side
        lit = [()]
        for p in reversed(side):  # every lit set, each ascending
            lit += [(p,) + lamps for lamps in lit]
        return [(lamps, pos) for lamps in lit for pos in markers]
    # free abelian (a box) or the rank-1 free group (an interval)
    if isinstance(g, FreeGroup):
        return [(1,) * j if j >= 0 else (-1,) * -j for j in side]
    return list(itertools.product(side, repeat=g.rank))


def _family_codes(g: Group, kind: str, m: int) -> np.ndarray | None:
    """The m-th member of the `kind` family of g as ascending packed codes,
    built by `_family`'s rule with no element made, or None when g has no
    codec or some element of the member leaves the codec's fields.

    The size is checked before anything is built: a member past
    `_MEMBER_SIZE_CAP` raises BudgetError. A direct product joins its
    factors' codes field by field (`ProductCodec.join`).
    """
    if _member_size(g, kind, m) > _MEMBER_SIZE_CAP:
        raise BudgetError(
            f"Folner member {m} of {kind} of {g.spec_text()} passes {_MEMBER_SIZE_CAP} elements"
        )
    codec = g.codec()
    if codec is None:
        return None
    if not isinstance(g, DirectProduct):
        return _leaf_codes(g, kind, m, codec)
    kinds = _factor_kinds(g, kind)
    parts = [_leaf_codes(f, k, m, c) for f, k, c in zip(g.factors, kinds, codec.subs)]
    return None if any(p is None for p in parts) else codec.join(parts)


def _leaf_codes(g: Group, kind: str, m: int, codec) -> np.ndarray | None:
    """`_family_codes` of a group that is not a direct product, under `codec`.

    The abelian, cyclic and lamplighter codecs keep coordinates, residues,
    lamps and the marker in disjoint fields whose values add, so a box, a
    residue range or a lamp-by-marker grid is a grid of codes `_grid` builds
    from a few encoded elements. Every field's range is an interval, so the
    member encodes when its corners do. The rank-1 free group's 2m + 1
    words are encoded one by one.
    """
    kind, enc = _leaf_kind(g, kind), codec.encode_one
    if kind == "trivial":
        return np.array([enc(g.identity)], dtype=np.uint64)
    if isinstance(g, CyclicGroup):
        return _grid(enc(0), [(enc(1) - enc(0), g.n)])
    if isinstance(g, FreeGroup):  # rank 1: the words a^j, |j| <= m
        codes = [enc((1,) * j if j >= 0 else (-1,) * -j) for j in range(-m, m + 1)]
        return None if None in codes else np.sort(np.array(codes, dtype=np.uint64))
    side = 2 * m + 1
    if isinstance(g, Lamplighter):
        lo, hi = (0, 0) if kind == "lamps" else (-m, m)
        ends = tuple(sorted({-m, m}))
        if enc((ends, lo)) is None or enc((ends, hi)) is None:
            return None
        base = enc(((), lo))
        # lamp pattern j lights lamp -m + t for each bit t of j, above the marker
        return _grid(base, [(enc(((-m,), lo)) - base, 2**side), (enc(((), lo + 1)) - base, hi - lo + 1)])
    corner = enc((-m,) * g.rank)
    if corner is None or enc((m,) * g.rank) is None:
        return None
    zero = enc((0,) * g.rank)
    units = [enc(tuple(int(i == j) for j in range(g.rank))) - zero for i in range(g.rank)]
    return _grid(corner, [(u, side) for u in units])


def _grid(base: int, axes) -> np.ndarray:
    """base + sum k_i * step_i over every 0 <= k_i < count_i, for the
    (step_i, count_i) of `axes`, the first axis slowest: ascending when each
    step passes the span of the axes after it."""
    codes = np.array([base], dtype=np.uint64)
    for step, count in axes:
        codes = (codes[:, None] + np.arange(count, dtype=np.uint64) * np.uint64(step)).ravel()
    return codes


def folner_search(H: AmenableSubgroup, B: GSet, eps, start: int = 0) -> tuple[GSet, int, int]:
    """(F, m, defect): the first declared-family member F = member m
    (symmetrized), m >= start, with |BF \\ F| < eps|F|, and that defect.

    The inequality is verified with exact integer counts on every return;
    eps may be a Fraction, int or string accepted by Fraction. An empty B
    gives ({e}, 0, 0). A `start` above 0 returns the smallest such member
    only when every member below `start` is known to fail for (B, eps).

    A member of a declared-symmetric family that `_family_codes` builds is
    counted on those codes, and only the member returned is built as
    elements, carrying its codes; every other member is built as elements
    and counted by `invariance_defect`.
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
    kind = H.embedding
    symmetric = _symmetric(g, kind)
    codec = g.codec()
    pairs = None if codec is None else [(b, codec.encode_one(b)) for b in B.elements]
    m = start
    while True:
        if _member_size(g, kind, m) > _MEMBER_SIZE_CAP:
            raise BudgetError(
                f"Folner family of {H.describe()} passes {_MEMBER_SIZE_CAP} elements "
                f"at index {m} without satisfying eps={eps}"
            )
        codes = _family_codes(g, kind, m) if symmetric else None
        if codes is None:
            member = H.folner_member(m)
            F = member if symmetric else member.symmetrized()
            defect, size = invariance_defect(g, B, F), len(F)
        else:
            F, defect, size = None, _defect_on_codes(g, pairs, codes), len(codes)
        if defect * eps.denominator < eps.numerator * size:
            if F is None:
                F = H.folner_member(m).with_codes(codes)
            return F, m, defect
        m += 1


def folner_set(H: AmenableSubgroup, B: GSet, eps) -> GSet:
    """Smallest declared-family member F (symmetrized) with |BF \\ F| < eps|F|,
    searched from member 0."""
    return folner_search(H, B, eps)[0]


def invariance_defect(g: Group, B: GSet, F: GSet) -> int:
    """|BF \\ F| as an exact integer.

    Counted on `F.codes` by `_defect_on_codes` when the group has a codec
    that encodes every element of F, else with the group law on sets.
    """
    F_codes = F.codes
    if F_codes is None:
        BF = {g.mul(b, f) for b in B.elements for f in F.elements}
        return len(BF - F.elements)
    codec = g.codec()
    return _defect_on_codes(g, [(b, codec.encode_one(b)) for b in B.elements], F_codes)


def _defect_on_codes(g: Group, pairs, F_codes: np.ndarray) -> int:
    """|BF \\ F| for the (b, b's code or None) `pairs` of B and the ascending
    codes of F, every element of which encodes.

    The encoded b's are multiplied by F's codes in runs of one `mul` of at
    most max(|F|, `_BLOCK_ROWS`) rows, b-major, and the products that
    `searchsorted` does not find in F are kept; |BF \\ F| is the number of
    distinct codes kept, from one sort. A row `mul` flags, and every
    row of a b that does not encode, is multiplied by the group law with the
    element its F code decodes to, and is kept when its product encodes,
    else it lies outside F and is counted once in a set.
    """
    codec, n = g.codec(), len(F_codes)
    coded = [(b, c) for b, c in pairs if c is not None]
    block = max(n, _BLOCK_ROWS) // max(n, 1)
    kept, outside = [], set()
    rows = [(b, f) for b, c in pairs if c is None for f in F_codes.tolist()]
    for k in range(0, len(coded), block):
        run = coded[k : k + block]
        xs = np.repeat(np.array([c for _, c in run], dtype=np.uint64), n)
        out, ok = codec.mul(xs, np.tile(F_codes, len(run)))
        kept.append(out[ok])
        rows += [(run[r // n][0], int(F_codes[r % n])) for r in np.flatnonzero(~ok).tolist()]
    extra = []
    for b, f in rows:
        x = g.mul(b, codec.decode_one(f))
        c = codec.encode_one(x)
        if c is None:
            outside.add(x)
        else:
            extra.append(c)
    kept.append(np.array(extra, dtype=np.uint64))
    BF = np.concatenate(kept)
    at = np.minimum(np.searchsorted(F_codes, BF), n - 1)
    new = np.sort(BF[F_codes[at] != BF])  # BF \ F, with repeats
    return len(new) - int(np.count_nonzero(new[1:] == new[:-1])) + len(outside)


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
