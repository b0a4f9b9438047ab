from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from groupwalk import (
    AlphaSchedule,
    AmenableSubgroup,
    CyclicGroup,
    DirectProduct,
    FreeAbelian,
    FreeGroup,
    GSet,
    Lamplighter,
    SpecMismatchError,
    certify_visibility,
    construction_step,
    folner_set,
    make_entry,
    new_state,
    parse_group,
    run_construction,
)
from groupwalk import amenable
from groupwalk.amenable import folner_search, invariance_defect
from groupwalk.construction import VisibilityCatalogue, catalogue_from_texts
from groupwalk.cli import main

Z = FreeAbelian(1)
F2xZ = DirectProduct((FreeGroup(2), FreeAbelian(1)))
LAMP = Lamplighter()


def ball(group, radius):
    """All elements of word length <= radius, from the group's shells."""
    return GSet(group, frozenset(x for r in range(radius + 1) for x in group.shell(r)))


def _defect_by_group_law(g, B, F):
    """|BF \\ F| by the group law on sets, independent of the library's count."""
    return len({g.mul(b, f) for b in B.elements for f in F.elements} - F.elements)


def test_folner_interval_on_z():
    H = AmenableSubgroup(Z, "whole")
    B = GSet(Z, frozenset([(1,), (-1,)]))
    F = folner_set(H, B, Fraction(1, 3))
    # [-3, 3]: defect 2 < 7/3
    assert F.elements == frozenset((k,) for k in range(-3, 4))
    assert invariance_defect(Z, B, F) == 2
    assert folner_search(H, B, Fraction(1, 3)) == (F, 3, 2)


def test_folner_empty_b_gives_identity():
    H = AmenableSubgroup(Z, "whole")
    F = folner_set(H, GSet(Z, frozenset()), Fraction(1, 5))
    assert F.elements == frozenset([Z.identity])
    assert folner_search(H, GSet(Z, frozenset()), Fraction(1, 5)) == (F, 0, 0)


def test_folner_rejects_b_outside_h():
    H = AmenableSubgroup(F2xZ, "center")
    B = GSet(F2xZ, frozenset([((1,), (0,))]))  # not central
    with pytest.raises(SpecMismatchError):
        folner_set(H, B, Fraction(1, 2))


@given(st.integers(2, 9), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_folner_invariance_always_exact(denom, radius):
    H = AmenableSubgroup(Z, "whole")
    B = GSet(Z, frozenset((k,) for k in range(-radius, radius + 1) if k)).symmetrized()
    eps = Fraction(1, denom)
    F = folner_set(H, B, eps)
    assert F.is_symmetric()
    # the defining inequality, with integer counts
    assert invariance_defect(Z, B, F) * denom < len(F)


def _word(n):
    return tuple(1 if j % 2 == 0 else 2 for j in range(n))  # abab..., reduced


_Z_EDGE = (1 << 15) - 1, -(1 << 15), 1 << 15, 1 << 16  # 16-bit field; 1 << 16 flags every row
# each group's pool: a small ball, plus elements at and past its codec's edges
_DEFECT_POOLS = {
    "free(2)": [_word(n) for n in (27, 28, 29)],
    "free-abelian(2)": [(v, 0) for v in ((1 << 30) - 1, -(1 << 30), 1 << 30, -(1 << 30) - 1)]
    + [(1 << 31, 0), (1, -(1 << 31))],  # a coordinate of size 2^31 flags every row
    "cyclic(5)": [],
    "lamplighter(2)": [((p,), 0) for p in (-24, -23, 23, 24)]
    + [((-23, 23), 1), ((22,), 2), ((), (1 << 15) - 1), ((), -(1 << 15)), ((), 1 << 15)],
    "product(free(2), free-abelian(1))": [(_word(n), (0,)) for n in (19, 20, 21)]
    + [((), (v,)) for v in _Z_EDGE],
    "product(free-abelian(1), cyclic(3))": [((v,), 1) for v in _Z_EDGE],
    "product(lamplighter(2), free-abelian(1))": [(((24,), 0), (1,))],  # no codec
}


@st.composite
def _defect_inputs(draw):
    text = draw(st.sampled_from(sorted(_DEFECT_POOLS)))
    g = parse_group(text)
    pool = sorted(set(ball(g, 2).elements).union(_DEFECT_POOLS[text]), key=g.sort_key)
    B = draw(st.lists(st.sampled_from(pool), max_size=4))
    F = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return text, B, F, draw(st.booleans())


class _SpyCodec:
    """The group's codec; `mul` tallies the rows it flags, and with
    `overflag` also flags every even row it does not, so those rows take the
    flagged path although their products encode."""

    def __init__(self, codec, overflag):
        self.codec, self.overflag = codec, overflag
        self.calls = self.flagged = self.overflagged = 0

    def encode_one(self, x):
        return self.codec.encode_one(x)

    def mul(self, xs, ys):
        out, ok = self.codec.mul(xs, ys)
        self.calls += 1
        self.flagged += int(np.count_nonzero(~ok))
        if self.overflag:
            even = np.arange(len(ok)) % 2 == 0
            self.overflagged += int(np.count_nonzero(ok & even))
            ok = ok & ~even
        return out, ok


def test_the_code_count_is_the_group_law_count_at_every_codec_edge():
    routes = set()

    @given(_defect_inputs())
    @example(("lamplighter(2)", [((), 1)], [((23,), 0), ((), 0)], False))  # lamp 23 -> 24
    @example(("lamplighter(2)", [((), 1)], [((24,), 0)], False))  # F does not encode
    @example(("lamplighter(2)", [((24,), 0)], [((23,), 0), ((), 0)], False))  # b does not encode
    @example(("free-abelian(2)", [(1, 0), (-1, 0)], [(0, 0), (1, 0), (-1, 0)], True))
    @example(("product(lamplighter(2), free-abelian(1))", [(((), 1), (0,))], [(((), 0), (0,))], False))
    @settings(max_examples=200, deadline=None)
    def check(drawn):
        text, B, F, overflag = drawn
        g = parse_group(text)
        spy = None if g.codec() is None else _SpyCodec(g.codec(), overflag)
        g.codec = lambda: spy
        B, F = GSet(g, frozenset(B)), GSet(g, frozenset(F))
        # an over-flagged row re-encodes and joins the codes, so it is never counted twice
        assert invariance_defect(g, B, F) == _defect_by_group_law(g, B, F)
        if spy is None:
            routes.add("no codec")
        elif F.codes is None:
            routes.add("F does not encode")
        else:
            routes.update(n for n in ("flagged", "overflagged") if getattr(spy, n))
            if any(spy.encode_one(b) is None for b in B.elements):
                routes.add("b does not encode")

    check()
    assert routes == {"no codec", "F does not encode", "b does not encode", "flagged", "overflagged"}


@given(st.integers(2, 12))
@settings(max_examples=20, deadline=None)
def test_folner_monotone_in_eps(denom):
    H = AmenableSubgroup(Z, "whole")
    B = GSet(Z, frozenset([(1,), (-1,)]))
    big = folner_set(H, B, Fraction(1, denom))
    bigger = folner_set(H, B, Fraction(1, denom + 1))
    assert len(bigger) >= len(big)


def test_folner_on_lamps():
    H = AmenableSubgroup(LAMP, "lamps")
    B = GSet(LAMP, frozenset([((0,), 0)]))
    F = folner_set(H, B, Fraction(1, 4))
    assert all(x[1] == 0 for x in F.elements)
    assert invariance_defect(LAMP, B, F) * 4 < len(F)


def test_folner_on_product_factor():
    g = DirectProduct((FreeAbelian(1), CyclicGroup(3)))
    H = AmenableSubgroup(g, "factor:0")
    B = GSet(g, frozenset([((1,), 0), ((-1,), 0)]))
    F = folner_set(H, B, Fraction(1, 2))
    assert all(x[1] == 0 for x in F.elements)


# (group, embedding, word-length radius of B's pool, largest 1/eps)
_WARM_CASES = [
    ("free-abelian(1)", "whole", 4, 12),
    ("free-abelian(2)", "whole", 2, 5),
    ("product(free(2), free-abelian(1))", "center", 3, 10),
    ("product(free-abelian(1), cyclic(3))", "factor:0", 3, 10),
    ("lamplighter(2)", "lamps", 3, 8),
]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_warm_search_from_a_smaller_b_and_larger_eps_is_the_cold_search(data):
    # every member below m1 fails for (B1, eps1), so it fails for B2 >= B1
    # and eps2 <= eps1 too, and starting at m1 skips only failing members
    text, embedding, radius, denom = data.draw(st.sampled_from(_WARM_CASES))
    g = parse_group(text)
    H = AmenableSubgroup(g, embedding)
    pool = sorted(
        (x for r in range(1, radius + 1) for x in g.shell(r) if H.contains(x)), key=g.sort_key
    )
    B2 = frozenset(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))
    B1 = frozenset(data.draw(st.lists(st.sampled_from(sorted(B2, key=g.sort_key)), max_size=4)))
    d1 = data.draw(st.integers(1, denom))
    d2 = data.draw(st.integers(d1, denom))
    _, m1, _ = folner_search(H, GSet(g, B1), Fraction(1, d1))
    cold = folner_search(H, GSet(g, B2), Fraction(1, d2))
    assert folner_search(H, GSet(g, B2), Fraction(1, d2), start=m1) == cold
    assert cold[1] >= m1


@pytest.mark.parametrize(
    "group, entries, seed, cap, stages, honest",
    [
        # cap 20 truncates stage 4's conjugation, and stage 5 would refuse |A_5| = 130
        ("lamplighter(2)", [(("({0}|0)", "({}|1)"), "lamps")], 1, 20, 4, 3),
        ("lamplighter(2)", [(("({0}|0)",), "lamps")], 1, 600, 5, 5),
        (
            "product(free(2), free-abelian(1))",
            [(("(e|(1))",), "center"), (("(e|(2))", "(e|(-5))"), "factor:1"), (("(e|(3))",), "center")],
            7,
            10**6,
            24,
            24,
        ),
    ],
    ids=["lamplighter-truncated", "lamplighter", "f2xz-3-entries"],
)
def test_every_stage_record_is_a_cold_search(group, entries, seed, cap, stages, honest):
    g = parse_group(group)
    state = new_state(g, catalogue_from_texts(g, entries, seed), AlphaSchedule(), product_cap=cap)
    state = run_construction(state, stages)
    assert state.honest_through() == honest
    for r in state.records:
        H = state.catalogue.entries[r.entry_index].H
        assert (r.F, r.m, r.defect) == folner_search(H, r.B, Fraction(1, r.i)), r.i


def test_a_record_whose_b_is_not_inside_the_stage_b_does_not_move_the_start():
    # On the lamplighter no cap that truncates a stage lets the next one run
    # (F_i's 2^(2m+1) lamp patterns pass the cap), so B never shrinks within
    # a run; stage 1 is rewritten here as a stage of B = +-1..+-5, which
    # stopped at member 5, while stage 4 (B = {+-1}, eps 1/4) stops at 4.
    H = AmenableSubgroup(Z, "whole")
    catalogue = VisibilityCatalogue((make_entry(GSet(Z, frozenset([(1,)])), H),), seed=1)
    state = run_construction(new_state(Z, catalogue), 3)
    wide = GSet(Z, frozenset((k,) for k in range(-5, 6) if k))
    F, m, defect = folner_search(H, wide, 1)
    assert m == 5
    first = replace(state.records[0], B=wide, F=F, m=m, defect=defect)
    state = replace(state, records=(first,) + state.records[1:])
    stage4 = construction_step(state).records[-1]
    assert not wide.elements <= stage4.B.elements
    assert (stage4.F, stage4.m, stage4.defect) == folner_search(H, stage4.B, Fraction(1, 4))
    assert stage4.m == 4


def test_a_factor_past_the_cap_ends_the_family(monkeypatch, capsys):
    # Z's interval passes the cap at member 25, so F2 x Z's center family
    # ends there rather than shrinking back to a member that fits
    monkeypatch.setattr(amenable, "_MEMBER_SIZE_CAP", 50)
    assert AmenableSubgroup(F2xZ, "center").folner_member(24) is not None
    assert AmenableSubgroup(F2xZ, "center").folner_member(25) is None
    argv = ["--preset", "f2xz", "--embedding", "center", "--b", "(e|(1))", "--eps", "1/100"]
    assert main(["folner"] + argv) == 2
    assert "budget exhausted" in capsys.readouterr().err


def test_a_lamplighter_factor_past_the_cap_ends_the_family():
    # the lamplighter's member 7 alone has 2^15 * 15 elements, more than
    # the cap, so the product's member 7 is None, not 2 * 15 elements
    g = DirectProduct((LAMP, Z))
    assert len(AmenableSubgroup(g, "whole").folner_member(4)) == 2**9 * 9 * 9
    assert AmenableSubgroup(g, "whole").folner_member(7) is None


@pytest.mark.parametrize(
    "group, embedding, size",
    [
        (FreeGroup(2), "trivial", 1),
        (CyclicGroup(5), "whole", 5),
        (DirectProduct((Z, CyclicGroup(3))), "factor:1", 3),
    ],
    ids=["trivial", "cyclic", "z-x-c3-factor1"],
)
def test_a_finite_subgroup_is_its_own_member(group, embedding, size):
    H = AmenableSubgroup(group, embedding)
    assert len(H.folner_member(0)) == size
    assert H.folner_member(5) == H.folner_member(0)


# every group family the library ships, alone and in products, with every
# kind; pairs an AmenableSubgroup refuses are skipped
_FAMILY_GROUPS = [
    "free(1)", "free(2)", "free-abelian(1)", "free-abelian(2)", "cyclic(3)", "lamplighter(2)",
    "product(free(2), free-abelian(1))", "product(free-abelian(1), cyclic(3))",
    "product(lamplighter(2), free-abelian(1))", "product(cyclic(3), lamplighter(2))",
]
_FAMILY_KINDS = ["whole", "center", "trivial", "lamps", "factor:0", "factor:1"]


@pytest.mark.parametrize("text", _FAMILY_GROUPS)
def test_a_family_declared_symmetric_is_symmetric_by_the_group_law(text):
    # folner_search skips symmetrized() on a declared-symmetric family, so
    # each member m <= 3 must already hold every inverse; every undeclared
    # family must have an asymmetric member there, or the declaration is loose
    g = parse_group(text)
    admitted = 0
    for kind in _FAMILY_KINDS:
        try:
            H = AmenableSubgroup(g, kind)
        except SpecMismatchError:
            continue
        admitted += 1
        members = [H.folner_member(m) for m in range(4)]
        symmetric = [F.elements == F.symmetrized().elements for F in members]
        if amenable._symmetric(g, kind):
            assert all(symmetric), kind
        else:
            assert "lamplighter" in text and kind in ("whole", "factor:0", "factor:1"), kind
            assert not all(symmetric), kind
    assert admitted


def test_the_search_symmetrizes_the_lamplighter_whole_family():
    H = AmenableSubgroup(LAMP, "whole")
    x = ((-1,), 1)  # its inverse ((-2,), -1) lights a lamp outside [-1, 1]
    assert x in H.folner_member(1).elements and LAMP.inv(x) not in H.folner_member(1).elements
    F, m, _ = folner_search(H, GSet(LAMP, frozenset([((), 1)])), Fraction(1, 2))
    assert F.is_symmetric() and F.elements > H.folner_member(m).elements


def test_embedding_validation():
    with pytest.raises(SpecMismatchError):
        AmenableSubgroup(FreeGroup(2), "whole")  # F2 is not amenable
    with pytest.raises(SpecMismatchError):
        AmenableSubgroup(Z, "lamps")
    with pytest.raises(SpecMismatchError):
        AmenableSubgroup(F2xZ, "factor:0")  # the free factor
    AmenableSubgroup(F2xZ, "factor:1")  # the abelian one is fine


def test_certificate_structural_pass():
    S = GSet(F2xZ, frozenset([((), (1,))]))
    H = AmenableSubgroup(F2xZ, "center")
    assert certify_visibility(S, H)


def test_certificate_structural_soundness_sampled():
    # for a normal H the certificate claims S cap H^gamma nonempty for every
    # gamma; spot-check on a whole ball of conjugators
    g = F2xZ
    S = GSet(g, frozenset([((), (1,))]))
    H = AmenableSubgroup(g, "center")
    assert certify_visibility(S, H)
    for gamma in ball(g, 2):
        assert any(H.contains(g.conjugate(x, gamma)) for x in S.elements)


@pytest.mark.parametrize(
    "group, embedding",
    [
        (DirectProduct((FreeAbelian(1), CyclicGroup(3))), "whole"),
        (F2xZ, "center"),
        (F2xZ, "factor:1"),
        (FreeGroup(2), "trivial"),
        (LAMP, "lamps"),
    ],
    ids=["whole", "center", "factor", "trivial", "lamps"],
)
def test_every_embedding_kind_is_normal(group, embedding):
    # certify_visibility checks only gamma = e, which is sound because
    # each admitted kind is closed under conjugation
    H = AmenableSubgroup(group, embedding)
    near = ball(group, 2).elements
    for x in near:
        if H.contains(x):
            assert all(H.contains(group.conjugate(x, gamma)) for gamma in near)


def test_certificate_refuted_at_identity():
    # S misses the lamps subgroup entirely, so the identity conjugate refutes it
    S = GSet(LAMP, frozenset([((), 1)]))
    H = AmenableSubgroup(LAMP, "lamps")
    assert not certify_visibility(S, H)
