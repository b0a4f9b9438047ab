import hashlib
import math
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from groupwalk import (
    DirectProduct,
    FreeAbelian,
    FreeGroup,
    GSet,
    Lamplighter,
    SparseMeasure,
    convolve,
    convolve_reference,
    delta,
    tv_distance,
    uniform,
)
from groupwalk import groups, measures
from groupwalk.errors import BudgetError, SpecMismatchError
from groupwalk.measures import _window_plan, tv_left_translate

F2 = FreeGroup(2)
Z = FreeAbelian(1)
F2xZ = DirectProduct((FreeGroup(2), FreeAbelian(1)))
LAMP = Lamplighter()
# two codec-less groups: their measures keep every atom in the side dict
# (rank 7 leaves under 10 bits a coordinate; the product codec packs no lamplighter)
Z7 = FreeAbelian(7)
LAMPxZ = DirectProduct((Lamplighter(), FreeAbelian(1)))

letters = st.integers(-2, 2).filter(lambda l: l != 0)
words = st.lists(letters, max_size=5).map(
    lambda ls: reduce(F2.mul, [(l,) for l in ls], F2.identity)
)

# exact measures with small positive rational masses
masses = st.fractions(
    min_value=Fraction(1, 64), max_value=Fraction(1, 2), max_denominator=64
)


def exact_measures(element_strategy, group, max_atoms=12):
    return st.lists(
        st.tuples(element_strategy, masses), min_size=1, max_size=max_atoms
    ).map(lambda items: SparseMeasure.from_items(group, items, mode="exact"))


f2_measures = exact_measures(words, F2)
z_elements = st.tuples(st.integers(-8, 8))
z_measures = exact_measures(z_elements, Z)


def _reduced_word(first, rest):
    # a reduced word in F2: each letter is one of the three that do not
    # cancel the letter before it
    w = [(1, -1, 2, -2)[first]]
    for r in rest:
        w.append([l for l in (1, -1, 2, -2) if l != -w[-1]][r])
    return tuple(w)


# up to 40 letters: past both the 20-letter free field of the F2 x Z codec
# and the 28-letter F2 codec, so the overflow side dict is exercised
long_words = st.one_of(
    st.just(()),
    *(
        st.builds(_reduced_word, st.integers(0, 3), st.lists(st.integers(0, 2), min_size=lo, max_size=hi))
        for lo, hi in ((0, 5), (18, 39))
    ),
)
# central coordinates at the edges of the 16-bit field overflow as well
centrals = st.one_of(st.integers(-3, 3), st.sampled_from([-32768, 32767, 40000]))
float_masses = st.floats(min_value=1e-3, max_value=1.0)
float_lost = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5))


def float_measures(elements, group):
    return st.builds(
        lambda items, lost: SparseMeasure.from_items(group, items, "float", lost_mass=lost),
        st.lists(st.tuples(elements, float_masses), min_size=1, max_size=10),
        float_lost,
    )


f2xz_elements = st.tuples(long_words, st.tuples(centrals))
f2xz_float_measures = float_measures(f2xz_elements, F2xZ)
# lit lamps and the marker mostly in [-4, 4]; some lamps sit at or past the
# edges of the codec's lamp window [-23, 23] and some markers at or past the
# edges of its 16-bit field, so products overflow to the side dict and side
# atoms times nu land back in the pool
lamp_elements = st.tuples(
    st.lists(
        st.one_of(st.integers(-4, 4), st.sampled_from([-25, -24, -23, 23, 24, 25])),
        unique=True, max_size=4,
    ).map(lambda ls: tuple(sorted(ls))),
    st.one_of(st.integers(-4, 4), st.sampled_from([-32769, -32768, 32767, 32768])),
)
# the lamp toggle at 0, and a t that moves the marker and lights a lamp past the window
lamp_shifts = st.sampled_from([((0,), 0), ((-24, 2), 3)])
z7_elements = st.tuples(*[st.integers(-2, 2)] * 7)


def assert_placed(mu, bound=None):
    """The placement rule, the same in both modes: every atom the codec
    encodes is in the sorted pool, every other atom in the side dict. Float
    weights are float64; exact pool weights have the dtype `_dtype` gives
    for `bound`, the bound of the operation that made them (by default
    their sum, which is `from_items`' bound and an unpruned product's), and
    read out as Python ints, as do the side weights."""
    codec = mu.group.codec()
    codes = mu._codes.tolist()
    assert all(a < b for a, b in zip(codes, codes[1:]))
    assert codec is not None or not codes
    for c in codes:
        x = codec.decode_one(c)
        mu.group.validate(x)
        assert codec.encode_one(x) == c
    assert codec is None or all(codec.encode_one(x) is None for x in mu._side)
    want = mu._weight_sum() if bound is None else bound
    assert mu._masses.dtype == measures._dtype(mu.mode, want)
    if mu.mode == "exact":
        assert all(type(w) is int for w in [*mu._masses.tolist(), *mu._side.values(), mu._den])


def test_delta_and_uniform():
    d = delta(F2)
    assert d.total_mass() == 1.0 and len(d) == 1
    S = GSet(F2, frozenset([(1,), (-1,), (2,), (-2,)]))
    u = uniform(S, mode="exact")
    assert u.total_mass() == 1
    assert set(u.as_dict().values()) == {Fraction(1, 4)}


@given(f2_measures, f2_measures)
@settings(max_examples=60, deadline=None)
def test_convolve_matches_reference(mu, nu):
    got = convolve(mu, nu)
    want = convolve_reference(mu, nu)
    assert got.as_dict() == want.as_dict()
    assert got.lost_mass == want.lost_mass
    for m in (mu, nu, got):
        assert_placed(m)


# masses from a small set, so products tie often
tie_masses = st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 6)])


@pytest.mark.parametrize(
    "group, elements",
    [(F2, long_words), (F2xZ, f2xz_elements)],
    ids=["F2", "F2xZ"],
)
def test_exact_convolve_with_side_atoms_matches_reference(group, elements):
    # F2 words past the codec's 28 letters, and F2 x Z words past its
    # 20-letter free field or central coordinates outside its 16-bit field,
    # live in the side dict; the result must equal the oracle exactly, with
    # and without a budget, ties at the cutoff included
    exact = st.builds(
        lambda items: SparseMeasure.from_items(group, items, "exact", lost_mass=Fraction(1, 7)),
        st.lists(st.tuples(elements, st.one_of(tie_masses, masses)), min_size=1, max_size=8),
    )

    @given(exact, exact, st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def check(mu, nu, budget):
        for b in (None, budget):
            got = convolve(mu, nu, budget=b)
            want = convolve_reference(mu, nu, budget=b)
            assert got.as_dict() == want.as_dict()
            assert got.lost_mass == want.lost_mass
            # got's denominator is mu._den * nu._den, want's the reduced one
            assert tv_distance(got, want) == (0, got.lost_mass + want.lost_mass)
            for m in (mu, nu):
                assert_placed(m)
            assert_placed(got, mu._weight_sum() * nu._weight_sum())

    check()


def test_exact_budget_breaks_a_tie_across_pool_and_side_in_spiral_order():
    # the 21-letter word sits in the side dict, (e|(30000)) in the pool; both
    # weigh 1/3, and the side atom is first in spiral order (length 21 < 30000)
    side_x = (_reduced_word(0, [0] * 20), (0,))
    pool_x = ((), (30000,))
    items = [(side_x, Fraction(1, 3)), (pool_x, Fraction(1, 3)), (((1,), (0,)), Fraction(1, 4))]
    mu = SparseMeasure.from_items(F2xZ, items, "exact")
    e = delta(F2xZ, mode="exact")
    assert side_x in mu._side and len(mu._codes) == 2
    for budget, kept in ((1, {side_x}), (2, {side_x, pool_x})):
        got = convolve(mu, e, budget=budget)
        assert set(got.as_dict()) == kept
        assert got.as_dict() == convolve_reference(mu, e, budget=budget).as_dict()
        assert got.total_mass() + got.lost_mass == mu.total_mass()


@pytest.mark.parametrize("dtype", [np.float64, object, np.int64], ids=["float", "exact", "int64"])
def test_dedup_of_no_rows_keeps_the_weight_dtype(dtype):
    codes, sums = measures._dedup(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=dtype))
    assert len(codes) == len(sums) == 0
    assert codes.dtype == np.uint64 and sums.dtype == dtype


def test_dedup_sums_exact_numerators_as_python_ints():
    codes = np.array([3, 1, 3], dtype=np.uint64)
    codes, sums = measures._dedup(codes, np.array([10**30, 2, 1], dtype=object))
    assert codes.tolist() == [1, 3] and sums.tolist() == [2, 10**30 + 1]
    assert all(type(w) is int for w in sums.tolist())


def test_dedup_sums_int64_numerators_exactly_past_2_53():
    # float64 holds integers exactly only up to 2^53: a sum in float64 would
    # round 2^54 + 3 to 2^54 + 4
    codes = np.array([5, 2, 5, 5], dtype=np.uint64)
    weights = np.array([2**53 + 1, 7, 2**53 + 1, 1], dtype=np.int64)
    codes, sums = measures._dedup(codes, weights)
    assert sums.dtype == np.int64
    assert codes.tolist() == [2, 5] and sums.tolist() == [7, 2**54 + 3]


@given(f2_measures, f2_measures, f2_measures)
@settings(max_examples=25, deadline=None)
def test_convolution_associative_exact(mu, nu, rho):
    left = convolve(convolve(mu, nu), rho)
    right = convolve(mu, convolve(nu, rho))
    assert left.as_dict() == right.as_dict()


@given(f2_measures)
@settings(max_examples=40, deadline=None)
def test_delta_is_identity(mu):
    e = delta(F2, mode="exact")
    assert convolve(e, mu).as_dict() == mu.as_dict()
    assert convolve(mu, e).as_dict() == mu.as_dict()


@given(z_measures)
@settings(max_examples=40, deadline=None)
def test_symmetric_square_is_symmetric(mu):
    # symmetrize mu by hand, then mu*mu must satisfy m(g) == m(-g)
    sym_items = {}
    for x, m in mu.as_dict().items():
        half = m / 2
        sym_items[x] = sym_items.get(x, Fraction(0)) + half
        xi = Z.inv(x)
        sym_items[xi] = sym_items.get(xi, Fraction(0)) + half
    sym = SparseMeasure.from_items(Z, list(sym_items.items()), mode="exact")
    sq = convolve(sym, sym)
    d = sq.as_dict()
    for x, m in d.items():
        assert d[Z.inv(x)] == m


def test_exact_mass_conservation_through_powers():
    S = GSet(F2, frozenset([(1,), (-1,), (2,), (-2,)]))
    nu = uniform(S, mode="exact")
    rho = delta(F2, mode="exact")
    for _ in range(4):
        rho = convolve(rho, nu)
    assert rho.total_mass() + rho.lost_mass == 1


def _translate(t, mu):
    """t . mu, built through the boundary constructor: (t . mu)(A) = mu(t^-1 A)."""
    g = mu.group
    return SparseMeasure.from_items(
        g, [(g.mul(t, x), m) for x, m in mu.as_dict().items()], mu.mode, lost_mass=mu.lost_mass
    )


def test_tv_basics():
    S = GSet(F2, frozenset([(1,), (-1,)]))
    mu = uniform(S, mode="exact")
    v, br = tv_distance(mu, mu)
    assert v == 0 and br == 0
    nu = delta(F2, (2,), mode="exact")
    v, br = tv_distance(mu, nu)
    assert v == 2  # disjoint supports


@given(f2_measures, words)
@settings(max_examples=40, deadline=None)
def test_translation_preserves_tv(mu, t):
    heavy = {x: m for x, m in mu.as_dict().items() if m >= Fraction(1, 16)}
    nu = SparseMeasure.from_items(mu.group, heavy, "exact")
    v0, _ = tv_distance(mu, nu)
    v1, _ = tv_distance(_translate(t, mu), _translate(t, nu))
    assert v1 == v0


# exact measures are compared without tolerance; F2 measures with long words
# and F2 x Z measures with long words or edge central coordinates carry side atoms
@given(
    st.one_of(
        st.tuples(f2_measures, words),
        st.tuples(exact_measures(long_words, F2), words),
        st.tuples(exact_measures(f2xz_elements, F2xZ), f2xz_elements),
        st.tuples(f2xz_float_measures, f2xz_elements),
        st.tuples(exact_measures(lamp_elements, LAMP), lamp_shifts),
        st.tuples(float_measures(lamp_elements, LAMP), lamp_shifts),
    )
)
@settings(max_examples=120, deadline=None)
def test_tv_left_translate_matches_two_measure_path(case):
    mu, t = case
    direct = tv_left_translate(mu, t)
    via = tv_distance(_translate(t, mu), mu)
    assert abs(direct[0] - via[0]) <= (0 if mu.mode == "exact" else 1e-12)


def test_exact_kernel_runs_no_boundary_checks(monkeypatch):
    # exact convolve and tv_left_translate build only from atoms that were
    # checked on the way in, so once the inputs exist neither one validates
    # an element or goes through from_items
    cases = []
    for group, S, t in (
        (F2, [(1,), (-1,), (2,), (-2,)], (1,)),
        (Z, [(1,), (-1,), (3,), (-3,)], (1,)),
    ):
        nu = uniform(GSet(group, frozenset(S)), mode="exact")
        rho = convolve_reference(nu, nu)
        want = [convolve_reference(rho, nu, budget=b) for b in (None, 5)]
        cases.append((rho, nu, t, want, tv_distance(_translate(t, rho), rho)))

    def refuse(*args, **kwargs):
        raise AssertionError("the exact kernel ran a boundary check")

    for cls in (groups.Group, *groups.Group.__subclasses__()):
        monkeypatch.setattr(cls, "validate", refuse)
    monkeypatch.setattr(SparseMeasure, "from_items", classmethod(refuse))
    for rho, nu, t, want, want_tv in cases:
        for b, w in zip((None, 5), want):
            got = convolve(rho, nu, budget=b)
            assert got.as_dict() == w.as_dict() and got.lost_mass == w.lost_mass
        assert tv_left_translate(rho, t) == want_tv


def test_tv_left_translate_central_without_codec():
    # free-abelian(7) has no codec and every element is central, so the
    # vectorized central route must not run on its empty pool
    g = FreeAbelian(7)
    assert g.codec() is None
    t = (1, 0, 0, 0, 0, 0, 0)
    assert tv_left_translate(SparseMeasure.from_items(g, [], "float"), t) == (0.0, 0.0)
    assert tv_left_translate(delta(g), t) == (2.0, 0.0)


def test_tv_left_translate_packed_central_path(f2xz_nu):
    # the packed route, for central and non-central t, must agree with the
    # two-measure route
    for t in (((), (1,)), ((1,), (0,)), ((-2, 1), (-3,))):
        fast = tv_left_translate(f2xz_nu, t)
        slow = tv_distance(_translate(t, f2xz_nu), f2xz_nu)
        assert fast[0] == pytest.approx(slow[0], abs=1e-12)


def _edge_words(max_len):
    """Reduced F2 words at the edge of a free field of max_len letters, for t = a.

    Words of max_len letters with top letter b leave codec range under a;
    words of max_len + 1 letters with top letter a^-1 are side atoms that a
    brings back into range; words of max_len + 1 letters with top letter b
    stay side atoms.
    """
    tail = tuple([2, 1] * max_len)[: max_len - 1]
    return [(), (1,), (-1, 2), (2,) + tail, (-1, 2) + tail, (-1, -1) + tail, (2, 2) + tail]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize(
    "group, t, wrap",
    [
        (F2, (1,), lambda x, i: x),
        (F2xZ, ((1,), (0,)), lambda x, i: (x, (i - 2,))),
    ],
    ids=["F2", "F2xZ"],
)
def test_tv_left_translate_moves_side_atoms_back_into_the_pool(group, t, wrap, mode):
    codec = group.codec()
    free = codec if group is F2 else codec._subs[0]
    atoms = [wrap(x, i) for i, x in enumerate(_edge_words(free.max_len))]
    weight = (lambda i: Fraction(i + 1, 97)) if mode == "exact" else (lambda i: (i + 1) / 97)
    mu = SparseMeasure.from_items(group, [(x, weight(i)) for i, x in enumerate(atoms)], mode)
    # the setup really has pool atoms that spill and side atoms that come back
    spill = [x for x in atoms if codec.encode_one(x) is not None and codec.encode_one(group.mul(t, x)) is None]
    back = [x for x in mu._side if codec.encode_one(group.mul(t, x)) is not None]
    stay = [x for x in mu._side if codec.encode_one(group.mul(t, x)) is None]
    assert spill and back and stay
    for s in (t, group.inv(t)):
        got = tv_left_translate(mu, s)
        want = tv_distance(_translate(s, mu), mu)
        if mode == "exact":
            assert got == want
        else:
            assert got[0] == pytest.approx(want[0], abs=1e-12) and got[1] == want[1]


# lamplighter multipliers that do not encode: lamps past the window, a marker
# past its 16-bit field, one past int64. No codec kernel takes them, so
# tv_left_translate and the sort route move every row by the group law.
LAMP_FAR = [
    ((24,), 0),
    ((24,), 1),
    ((-24,), -1),
    ((-24,), 0),
    ((100,), 100),
    ((47, 70), 47),
    ((), 65535),
    ((), 2**64),
    ((3,), -(2**70)),
]
# rows at the window's and the marker field's edges; some products with
# LAMP_FAR land back inside both
LAMP_EDGE_ROWS = [
    ((23,), 0), ((-23,), 0), ((), 0), ((), -1), ((), 1), ((0,), 0), ((0, 5), 0),
    ((-23, 23), 0), ((), 32767), ((), -32768), ((1,), 5),
]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_lamplighter_multipliers_that_do_not_encode_take_the_group_law(mode):
    codec = LAMP.codec()
    weight = (lambda i: Fraction(i + 1, 97)) if mode == "exact" else (lambda i: (i + 1) / 97)
    mu = SparseMeasure.from_items(LAMP, [(x, weight(i)) for i, x in enumerate(LAMP_EDGE_ROWS)], mode)
    assert not mu._side
    for t in LAMP_FAR:
        assert codec.encode_one(t) is None
        got, want = tv_left_translate(mu, t), tv_distance(_translate(t, mu), mu)
        if mode == "exact":
            assert got == want
        else:
            assert got[0] == pytest.approx(want[0], abs=1e-12) and got[1] == want[1]
        # t as a side atom of nu: one row per atom of mu, so no sum is regrouped
        nu = delta(LAMP, t, mode=mode)
        prod = convolve(mu, nu)
        assert prod.as_dict() == convolve_reference(mu, nu).as_dict()
        assert_placed(prod)
    # some products land back in the window, and leave the side dict for the pool
    assert any(codec.encode_one(LAMP.mul(x, t)) is not None for x in LAMP_EDGE_ROWS for t in LAMP_FAR)


@given(f2_measures, st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_budgeted_convolve_keeps_heaviest(mu, budget):
    # mu * delta(e) is mu itself, so this isolates the exact budget pruning
    out = convolve(mu, delta(F2, mode="exact"), budget=budget)
    assert len(out) <= budget
    if len(mu) > budget:
        kept_min = min(out.as_dict().values())
        dropped = [m for x, m in mu.as_dict().items() if x not in out.as_dict()]
        assert all(m <= kept_min for m in dropped)
    assert out.total_mass() + out.lost_mass == mu.total_mass() + mu.lost_mass


def test_budget_prune_propagates_through_convolution():
    S = GSet(F2, frozenset([(1,), (-1,), (2,), (-2,)]))
    nu = uniform(S)
    rho = delta(F2)
    for _ in range(6):
        rho = convolve(rho, nu, budget=40)
        assert len(rho) <= 40
    # the ledger brackets exactly what went missing
    assert rho.lost_mass == pytest.approx(1.0 - rho.total_mass(), abs=1e-12)


def test_fast_path_agrees_with_reference():
    # two 500-atom float measures on the packed kernel; the result must
    # match the plain dict computation
    items1 = [((i,), 1.0 / 500) for i in range(-249, 251)]
    mu = SparseMeasure.from_items(Z, items1, mode="float")
    items2 = [((3 * i,), 1.0 / 500) for i in range(-249, 251)]
    nu = SparseMeasure.from_items(Z, items2, mode="float")
    fast = convolve(mu, nu)
    ref = convolve_reference(mu, nu)
    v, _ = tv_distance(fast, ref)
    assert v < 1e-12
    assert len(fast) == len(ref)


@st.composite
def line_pairs(draw, others=st.tuples(long_words.filter(bool), st.tuples(centrals)), max_others=3,
               bases=st.integers(-100, 100)):
    """(mu, nu) on F2 x Z whose dense blocks fit (`_dense_blocks_fit`): mu holds
    one to three fibers (free words) of 18-24 central coordinates out of a
    24-wide window from a drawn base, so fibers have holes; nu holds three
    to six line shifts out of a 9-wide kernel, so the kernel can be sparse,
    plus up to `max_others` other atoms."""
    fibers = draw(st.lists(st.lists(st.integers(0, 2), max_size=3), min_size=1, max_size=3))
    mu_items = {}
    for first, rest in enumerate(fibers):
        base = draw(bases)
        for off in draw(st.sets(st.integers(0, 23), min_size=18)):
            mu_items[(_reduced_word(first, rest), (base + off,))] = draw(float_masses)
    shifts = draw(st.sets(st.integers(-4, 4), min_size=3, max_size=6))
    nu_items = {((), (z,)): draw(float_masses) for z in shifts}
    for x in draw(st.lists(others, max_size=max_others)):
        nu_items[x] = draw(float_masses)
    return (
        SparseMeasure.from_items(F2xZ, mu_items, "float", lost_mass=draw(float_lost)),
        SparseMeasure.from_items(F2xZ, nu_items, "float"),
        True,
    )


def _dense_blocks_fit(mu, nu):
    """`_window_plan` of mu's pool and nu's line shifts alone on F2 x Z holds:
    mu's pool times the line shifts stays in the central field, whatever the
    rest of nu and the side atoms would do."""
    encode = F2xZ.codec().encode_one

    def part(p, keep):
        atoms = {x: m for x, m in p.as_dict().items() if encode(x) is not None and keep(x)}
        return SparseMeasure.from_items(F2xZ, atoms, p.mode)

    return _window_plan(part(mu, lambda x: True), part(nu, lambda x: x[0] == ())) is not None


def _leaves_line_field(mu, nu):
    """Some pool atom of mu times some line shift of nu leaves the 16-bit central field."""
    decode = F2xZ.codec().decode_one
    cs = [decode(c)[1][0] for c in mu._codes.tolist()]
    zs = [x[1][0] for x in map(decode, nu._codes.tolist()) if x[0] == ()]
    return any(not -32768 <= c + z <= 32767 for c in cs for z in zs)


def _random_pairs(measures):
    return st.tuples(measures, measures, st.just(False))


@pytest.mark.parametrize(
    "group, pairs",
    [
        (F2, _random_pairs(float_measures(long_words, F2))),
        (F2xZ, st.one_of(_random_pairs(f2xz_float_measures), line_pairs())),
        (LAMP, _random_pairs(float_measures(lamp_elements, LAMP))),
        (Z7, _random_pairs(float_measures(z7_elements, Z7))),
    ],
    ids=["F2", "F2xZ", "lamplighter(2)", "free-abelian(7)"],
)
def test_float_convolve_matches_reference(group, pairs):
    @given(pairs, st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def check(pair, budget):
        mu, nu, dense = pair
        if dense:
            assert _dense_blocks_fit(mu, nu)
        if group is F2xZ and _leaves_line_field(mu, nu):
            # edge of the field: the sort route
            assert not _dense_blocks_fit(mu, nu) and _window_plan(mu, nu) is None
        got = convolve(mu, nu)
        want = convolve_reference(mu, nu)
        g, w = got.as_dict(), want.as_dict()
        assert set(g) == set(w)
        for x, m in w.items():
            assert g[x] == pytest.approx(m, abs=1e-12)
        assert got.lost_mass == pytest.approx(want.lost_mass, abs=1e-12)
        tv = math.fsum(abs(g[x] - w[x]) for x in w)
        assert tv_distance(got, want)[0] == pytest.approx(tv, abs=1e-12)

        pruned = convolve(mu, nu, budget=budget)
        for m in (mu, nu, got, want, pruned):
            assert_placed(m)
        assert len(pruned) == min(budget, len(w))
        kept = pruned.as_dict()
        dropped = [m for x, m in w.items() if x not in kept]
        assert not dropped or min(w[x] for x in kept) >= max(dropped) - 1e-12
        assert pruned.total_mass() + pruned.lost_mass == pytest.approx(
            want.total_mass() + want.lost_mass, abs=1e-12
        )

    check()


def _exact(mu):
    """mu with each float mass read as the exact binary fraction it is."""
    return SparseMeasure.from_items(
        mu.group, [(x, Fraction(m)) for x, m in mu.as_dict().items()], "exact",
        lost_mass=Fraction(mu.lost_mass),
    )


def _sixty_fourths(mu):
    """mu with each float mass rounded to a positive multiple of 1/64, exactly:
    small numerators, so products of two such measures are int64."""
    return SparseMeasure.from_items(
        mu.group, [(x, Fraction(max(1, round(m * 64)), 64)) for x, m in mu.as_dict().items()], "exact"
    )


def _row_bytes(a, b):
    """The price of one row of a * b: a Python-int numerator adds the size
    of the product's denominator, an int64 one fits in the row."""
    dtype = measures._dtype(a.mode, a._weight_sum() * b._weight_sum())
    return measures._ROW_BYTES + (sys.getsizeof(a._den * b._den) if dtype is object else 0)


@given(line_pairs(), st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_exact_dense_route_matches_reference(pair, budget):
    # dense blocks in exact mode: np.convolve then runs on object-dtype
    # numerators
    mu, nu = (_exact(p) for p in pair[:2])
    assert _dense_blocks_fit(mu, nu)
    for b in (None, budget):
        got, want = convolve(mu, nu, budget=b), convolve_reference(mu, nu, budget=b)
        assert got.as_dict() == want.as_dict() and got.lost_mass == want.lost_mass
        assert_placed(got, mu._weight_sum() * nu._weight_sum())


def _convolve_on_route(monkeypatch, mu, nu, route):
    """convolve(mu, nu), checking that it runs `route` and matches the oracle
    in float and in exact mode."""
    ran = []
    real = measures._stream_windows
    monkeypatch.setattr(measures, "_stream_windows", lambda *a: ran.append(1) or real(*a))
    for a, b in ((mu, nu), (_exact(mu), _exact(nu))):
        assert (_window_plan(a, b) is not None) == (route == "window")
        del ran[:]
        got, want = convolve(a, b), convolve_reference(a, b)
        assert bool(ran) == (route == "window")
        assert_placed(got)
        if a.mode == "exact":
            assert got.as_dict() == want.as_dict() and got.lost_mass == want.lost_mass
        else:
            g, w = got.as_dict(), want.as_dict()
            assert set(g) == set(w)
            assert all(g[x] == pytest.approx(m, abs=1e-12) for x, m in w.items())


def test_window_fill_guard_sends_far_runs_to_the_sort_route(monkeypatch):
    # a and b times a^-1 and b^-1 land in the fiber of e, 60000 apart: one
    # window spanning both would hold 60001 slots for 2 rows
    mu = SparseMeasure.from_items(F2xZ, [(((1,), (-30000,)), 0.5), (((2,), (30000,)), 0.5)], "float")
    nu = SparseMeasure.from_items(
        F2xZ, [(((), (0,)), 0.25), (((-1,), (0,)), 0.25), (((-2,), (0,)), 0.5)], "float"
    )
    assert _dense_blocks_fit(mu, nu)
    _convolve_on_route(monkeypatch, mu, nu, "sort")


@pytest.mark.parametrize("side", ["mu", "nu"])
def test_a_side_atom_sends_the_convolution_to_the_sort_route(monkeypatch, side):
    mu_items = {((1,), (c,)): 1.0 / (c + 2) for c in range(40)}
    nu_items = {((), (-1,)): 0.25, ((), (0,)): 0.25, ((), (1,)): 0.25, ((2,), (3,)): 0.25}
    far = ((), (40000,))  # past the 16-bit central field
    (mu_items if side == "mu" else nu_items)[far] = 0.125
    mu, nu = (SparseMeasure.from_items(F2xZ, d, "float") for d in (mu_items, nu_items))
    assert (mu if side == "mu" else nu)._side and _dense_blocks_fit(mu, nu)
    _convolve_on_route(monkeypatch, mu, nu, "sort")


def test_nu_without_line_shifts_takes_the_sort_route(monkeypatch):
    mu = SparseMeasure.from_items(F2xZ, {((1,), (c,)): 1.0 / (c + 2) for c in range(40)}, "float")
    nu = SparseMeasure.from_items(F2xZ, {((2,), (3,)): 0.5, ((-1,), (0,)): 0.5}, "float")
    assert not (mu._side or nu._side)
    _convolve_on_route(monkeypatch, mu, nu, "sort")


def test_a_product_past_the_word_field_sends_the_convolution_to_the_sort_route(monkeypatch):
    # a^5 times a^16 has 21 letters, one past the free field of the F2 x Z
    # codec, so the fiber's first code times (a^16|(0)) does not encode
    mu = SparseMeasure.from_items(F2xZ, {((1,) * 5, (c,)): 1.0 / (c + 2) for c in range(40)}, "float")
    nu = SparseMeasure.from_items(
        F2xZ, {((), (-1,)): 0.25, ((), (0,)): 0.25, ((), (1,)): 0.25, ((1,) * 16, (0,)): 0.25}, "float"
    )
    assert _dense_blocks_fit(mu, nu) and not (mu._side or nu._side)
    _convolve_on_route(monkeypatch, mu, nu, "sort")


def test_a_run_past_the_field_sends_the_convolution_to_the_sort_route(monkeypatch):
    # the line shifts keep the fiber inside the 16-bit central field, and the
    # run's first atom times (b|(5)) encodes, but its last lands past 32767
    mu = SparseMeasure.from_items(F2xZ, {((1,), (c,)): 1.0 / (c - 32690) for c in range(32700, 32768)}, "float")
    nu = SparseMeasure.from_items(
        F2xZ, {((), (-2,)): 0.25, ((), (-1,)): 0.25, ((), (0,)): 0.25, ((2,), (5,)): 0.25}, "float"
    )
    assert _dense_blocks_fit(mu, nu) and _leaves_line_field(mu, nu) is False
    _convolve_on_route(monkeypatch, mu, nu, "sort")


@pytest.mark.parametrize("edge", [-32768, 32767], ids=["below-0", "past-the-top"])
def test_a_dense_block_past_the_field_sends_the_convolution_to_the_sort_route(monkeypatch, edge):
    # the line shift -1 or +1 takes the fiber's atom at the edge of the 16-bit
    # central field past it; the other atom's run stays inside
    inward = -1 if edge > 0 else 1
    mu = SparseMeasure.from_items(
        F2xZ, {((1,), (edge + inward * k,)): 1.0 / (k + 2) for k in range(60)}, "float"
    )
    nu = SparseMeasure.from_items(
        F2xZ, {((), (-1,)): 0.25, ((), (0,)): 0.25, ((), (1,)): 0.25, ((2,), (0,)): 0.25}, "float"
    )
    assert _leaves_line_field(mu, nu) and not _dense_blocks_fit(mu, nu)
    _convolve_on_route(monkeypatch, mu, nu, "sort")


# other atoms of nu with short words and small central coordinates, on fibers
# from one base: every product encodes, and no window can outgrow its rows
short_others = st.tuples(words.filter(bool), st.tuples(st.integers(-3, 3)))


@given(line_pairs(others=short_others, max_others=2, bases=st.just(0)))
@settings(max_examples=40, deadline=None)
def test_line_pairs_with_holes_take_the_window_route(pair):
    mu, nu, _ = pair
    with pytest.MonkeyPatch.context() as mp:
        _convolve_on_route(mp, mu, nu, "window")


def test_a_wide_line_kernel_takes_the_window_route(monkeypatch):
    # three atoms of one fiber meet 129 line shifts, one per slot of [-64, 64],
    # and one other atom: the dense block (131 slots) times the kernel's 129
    # is 16,899 products for the 387 rows the line shifts make, and the
    # windows (134 slots) fit the 390 rows, so the window route runs
    mu = SparseMeasure.from_items(F2xZ, {((1,), (c,)): 1.0 / (c + 2) for c in range(3)}, "float")
    nu_items = {((), (z,)): 1.0 / (z + 100) for z in range(-64, 65)}
    nu_items[((2,), (0,))] = 0.25
    nu = SparseMeasure.from_items(F2xZ, nu_items, "float")
    plan = _window_plan(mu, nu)
    assert plan is not None and len(plan.kernel) == 129 and int(plan.wlen.sum()) == 134
    _convolve_on_route(monkeypatch, mu, nu, "window")


def test_window_route_prices_its_windows_before_allocating(monkeypatch):
    mu = SparseMeasure.from_items(F2xZ, {((1,), (c,)): 1.0 / (c + 2) for c in range(40)}, "float")
    nu = SparseMeasure.from_items(
        F2xZ, {((), (-1,)): 0.2, ((), (0,)): 0.2, ((), (1,)): 0.2, ((2,), (3,)): 0.2, ((-1,), (0,)): 0.2},
        "float",
    )

    def allocated(*args):
        raise AssertionError("the windows were seeded before they were priced")

    # without a budget the running set may hold every window slot: a cap one
    # byte under its price (`_live_rows`) is refused before a window is
    # seeded, and the price itself is enough
    # a float pair, an exact pair of Python ints and an exact int64 pair
    pairs = [(mu, nu), (_exact(mu), _exact(nu)), (_sixty_fourths(mu), _sixty_fourths(nu))]
    assert [_row_bytes(a, b) > measures._ROW_BYTES for a, b in pairs] == [False, True, False]
    for a, b in pairs:
        plan = _window_plan(a, b)
        assert plan is not None
        rows = measures._live_rows(plan, measures._slices(plan.wlen), None)
        assert rows > int(plan.wlen.sum())
        row_bytes = _row_bytes(a, b)
        with monkeypatch.context() as mp:
            mp.setattr(measures, "_ACC_BYTES", rows * row_bytes - 1)
            mp.setattr(measures.np, "convolve", allocated)
            with pytest.raises(BudgetError, match=f"needs {rows} rows"):
                convolve(a, b)
        with monkeypatch.context() as mp:
            mp.setattr(measures, "_ACC_BYTES", rows * row_bytes)
            assert set(convolve(a, b).as_dict()) == set(convolve_reference(a, b).as_dict())


def test_budgeted_window_route_prices_its_live_set_before_allocating(monkeypatch):
    # with a budget the running set, not every window slot, is priced: a cap
    # one byte under that price is refused before a dense block is made, and
    # the price itself is enough
    mu = SparseMeasure.from_items(
        F2xZ, {((w,), (c,)): 1.0 / (c + 2) for w in (1, 2, -1, -2) for c in range(40)}, "float"
    )
    nu = SparseMeasure.from_items(
        F2xZ, {((), (-1,)): 0.2, ((), (0,)): 0.2, ((), (1,)): 0.2, ((2,), (3,)): 0.2, ((-1,), (0,)): 0.2},
        "float",
    )
    monkeypatch.setattr(measures, "_SLICE_SLOTS", 64)
    budget = 10

    def allocated(*args):
        raise AssertionError("a dense block was made before the live set was priced")

    pairs = [(mu, nu), (_exact(mu), _exact(nu)), (_sixty_fourths(mu), _sixty_fourths(nu))]
    assert [_row_bytes(a, b) > measures._ROW_BYTES for a, b in pairs] == [False, True, False]
    for a, b in pairs:
        plan = _window_plan(a, b)
        bounds = measures._slices(plan.wlen)
        rows = measures._live_rows(plan, bounds, budget)
        L = int(plan.wlen.sum())
        assert len(bounds) > 3 and rows < L < measures._live_rows(plan, bounds, None)
        row_bytes = _row_bytes(a, b)
        with monkeypatch.context() as mp:
            mp.setattr(measures, "_ACC_BYTES", rows * row_bytes - 1)
            mp.setattr(measures.np, "convolve", allocated)
            with pytest.raises(BudgetError, match=f"needs {rows} rows"):
                convolve(a, b, budget=budget)
        with monkeypatch.context() as mp:
            mp.setattr(measures, "_ACC_BYTES", rows * row_bytes)
            got, want = convolve(a, b, budget=budget), convolve_reference(a, b, budget=budget)
        assert set(got.as_dict()) == set(want.as_dict())


def _slice_pair(mode, uniform=False):
    """Four fibers of F2 x Z with holes and tied masses, times line shifts and
    four other atoms (two sharing an upper part), all binary fractions; with
    `uniform`, every atom of mu and of nu has one mass, so products tie in
    long runs across every slice."""
    one = Fraction(1) if mode == "exact" else 1.0
    mu = {((w,), (c,)): one * (1 + c % 3) / 64 for w in (1, 2, -1) for c in range(40) if c % 7 != w}
    mu.update({((1, 2), (c,)): one / 32 for c in range(5, 30)})
    nu = {((), (z,)): one / 16 for z in (-2, -1, 1, 2)}
    nu.update({((2,), (1,)): one / 8, ((-1,), (0,)): one / 8, ((1,), (-3,)): one / 8, ((2,), (-4,)): one / 4})
    if uniform:
        mu, nu = dict.fromkeys(mu, one / 64), dict.fromkeys(nu, one / 8)
    return SparseMeasure.from_items(F2xZ, mu, mode), SparseMeasure.from_items(F2xZ, nu, mode)


def _tied_budget(measure, at_least=20):
    """The least budget from `at_least` whose cutoff falls inside a run of
    tied masses, with tied atoms on both sides of it."""
    ranked = sorted(measure.as_dict().values(), reverse=True)
    return next(b for b in range(at_least, len(ranked)) if ranked[b - 1] == ranked[b])


@pytest.mark.parametrize("uniform", [False, True], ids=["mixed", "uniform"])
@pytest.mark.parametrize("slots", [4, 60])
def test_window_slices_keep_every_sum_and_the_tie_rule(monkeypatch, slots, uniform):
    # the 14 windows hold 25 to 45 slots: slices of 4 slots take one window
    # each, every one longer than a slice, and slices of 60 cut between
    # windows; a small budget cuts the running set many times, and with
    # uniform masses the atoms tied at the cutoff lie in many slices
    mu, nu = _slice_pair("exact", uniform)
    want_all = convolve_reference(mu, nu)
    budget = _tied_budget(want_all)
    floats = _slice_pair("float", uniform)
    default = [convolve(*floats, budget=b) for b in (None, budget)]
    monkeypatch.setattr(measures, "_SLICE_SLOTS", slots)
    for a, b in ((mu, nu), floats):
        plan = _window_plan(a, b)
        assert len(measures._slices(plan.wlen)) > 8 and int(plan.wlen.min()) > 4
    assert 4 * budget < len(want_all)
    for b in (None, budget):
        got, want = convolve(mu, nu, budget=b), convolve_reference(mu, nu, budget=b)
        assert got.as_dict() == want.as_dict() and got.lost_mass == want.lost_mass
        assert_placed(got, mu._weight_sum() * nu._weight_sum())
    for b, ref in zip((None, budget), default):
        got = convolve(*floats, budget=b)
        assert np.array_equal(got._codes, ref._codes)
        assert got._masses.tobytes() == ref._masses.tobytes()


@given(line_pairs(others=short_others, max_others=3, bases=st.just(0)), st.integers(1, 40), st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_window_slices_match_one_slice(pair, budget, slots):
    # any slice size gives the default's codes and masses, bit for bit
    mu, nu, _ = pair
    assert _window_plan(mu, nu) is not None
    for b in (None, budget):
        ref = convolve(mu, nu, budget=b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_SLICE_SLOTS", slots)
            got = convolve(mu, nu, budget=b)
        assert np.array_equal(got._codes, ref._codes)
        assert got._masses.tobytes() == ref._masses.tobytes()
        assert got.lost_mass == pytest.approx(ref.lost_mass, rel=1e-14, abs=1e-16)


def _f2xz_curve_steps(nu, steps=6, budget=20_000):
    """rho_n = rho_{n-1} * nu from delta(e) at `budget`, for n = 1..steps."""
    rho, out = delta(nu.group), []
    for _ in range(steps):
        rho = convolve(rho, nu, budget=budget)
        out.append(rho)
    return out


def test_f2xz_curve_routes_agree_to_the_stated_tolerance(f2xz_nu, monkeypatch):
    # every step takes the window route, which sums a code's line-shift rows
    # with np.convolve before its other rows; the sort route sums them in
    # spiral order, so the two agree on every atom but not bit for bit
    # (2.4e-15 relative at most here)
    windows = _f2xz_curve_steps(f2xz_nu)
    for rho in [delta(f2xz_nu.group)] + windows[:-1]:
        assert _window_plan(rho, f2xz_nu) is not None
    monkeypatch.setattr(measures, "_window_plan", lambda mu, nu: None)
    for w, s in zip(windows, _f2xz_curve_steps(f2xz_nu)):
        assert np.array_equal(w._codes, s._codes)
        assert np.all(np.abs(w._masses - s._masses) <= 4e-15 * s._masses)
        assert w.lost_mass == pytest.approx(s.lost_mass, rel=4e-15, abs=0)


# after each step n = 1..6 of the f2xz curve from delta(e) at budget 20k:
# the SHA-256 of (codes, masses) and lost_mass, as the one-pass window route
# gave them. Every step takes the window route, whose codes and masses must
# not drift; the test above checks them against the sort route. The streamed
# route sums the ledger's pruned weight slice by slice once it has cut its
# running set (steps 5 and 6 here), so lost_mass may move in its last bits
F2XZ_STEP_DIGESTS = [
    ("2f9731a1cfb4f2492d6c4a6d70b5e9828595d2814760fb3349df1e5e39ad7c36", "0x1.f07c1f07c1f08p-6"),
    ("53852ffa05995d7e86f9f82fb0d4573fccde3ac675653520d5b2c2b33508888b", "0x1.e8f65c9ee9aafp-5"),
    ("8f9aca207c209f35f5d953e3c4c61eb785c73db0722c877192ced53cb1fd692f", "0x1.6931a1454a817p-4"),
    ("9bfb28e8e9d40edffe834de972c166a1e8d208e8d9dcfb49f5ffbfc9894c5feb", "0x1.da623dfa7bcb5p-4"),
    ("d4f5569b1080a3013ecfb42cb038b2aced934c6dd72ad2ab1a6571c361038f83", "0x1.241a26c346194p-3"),
    ("c5a5e0d209e4294e50608603f33713c18f751211464d29d387f11ac7599e8e62", "0x1.596b550b744cbp-3"),
]


def test_f2xz_curve_steps_keep_their_bytes(f2xz_nu):
    steps = _f2xz_curve_steps(f2xz_nu, len(F2XZ_STEP_DIGESTS))
    for rho, (digest, lost) in zip(steps, F2XZ_STEP_DIGESTS):
        assert hashlib.sha256(rho._codes.tobytes() + rho._masses.tobytes()).hexdigest() == digest
        assert rho.lost_mass == pytest.approx(float.fromhex(lost), rel=4e-15, abs=0)


def test_a_budgeted_window_step_stays_inside_its_live_set(f2xz_nu):
    # step 6 of the f2xz curve at budget 20k: 20,000 atoms times nu_32 fill
    # 201,187 window slots in two slices. The whole step, plan included, must
    # allocate no more than its priced live set: 1.5 rows for each of the
    # 2 * budget rows the running set holds, plus one slice's scratch (two
    # rows a slot and the atoms gathered into it) and the plan's 0.9 MB,
    # 16 bytes a row
    budget = 20_000
    rho = _f2xz_curve_steps(f2xz_nu, 5, budget)[-1]
    plan = _window_plan(rho, f2xz_nu)
    bound = measures._live_rows(plan, measures._slices(plan.wlen), budget) * measures._ROW_BYTES
    assert bound < 7_300_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        convolve(rho, f2xz_nu, budget=budget)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound


def _traced_peak(f):
    """f() and the most bytes it held at once over what was held before, by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_window_plan_stays_inside_its_price(f2xz_nu):
    # step 6 of the f2xz curve at budget 200k: 200,000 atoms in 13,219
    # fibers times nu_32's 16 upper parts. The plan's broadcast `mul` and
    # its sorted runs are priced before the `mul` (`_plan_words`), at one
    # word a pool atom and `_PLAN_WORDS` words a cell, 8 bytes a word
    rho = _f2xz_curve_steps(f2xz_nu, 5, 200_000)[-1]
    plan, peak = _traced_peak(lambda: _window_plan(rho, f2xz_nu))
    parts, fibers = plan.start.shape[0] - 1, plan.start.shape[1]
    assert (len(rho), parts, fibers) == (200_000, 16, 13_219)
    price = measures._plan_words(len(rho), parts, fibers) * 8
    assert price < 24_000_000
    assert peak <= price


def test_a_window_plan_is_refused_before_its_mul(monkeypatch):
    mu = SparseMeasure.from_items(F2xZ, {((w,), (c,)): 0.01 for w in (1, 2, -1, -2) for c in range(25)}, "float")
    nu = SparseMeasure.from_items(F2xZ, {((), (0,)): 0.5, ((2,), (3,)): 0.25, ((-1,), (0,)): 0.25}, "float")
    price = measures._plan_words(100, 2, 4) * 8

    def multiplied(*args):
        raise AssertionError("the plan's mul ran before it was priced")

    with monkeypatch.context() as mp:
        mp.setattr(measures, "_ACC_BYTES", price - 1)
        mp.setattr(type(F2xZ.codec()), "mul", multiplied)
        with pytest.raises(BudgetError, match=f"needs {price // 8} rows"):
            _window_plan(mu, nu)
    monkeypatch.setattr(measures, "_ACC_BYTES", price)
    assert _window_plan(mu, nu) is not None


def test_an_unbudgeted_window_step_stays_inside_its_live_set(f2xz_nu):
    # step 5 of the f2xz curve with no budget keeps every one of its
    # 1,163,835 window slots: the whole step, plan included, must allocate
    # no more than its priced live set, 1.5 rows a slot for the running set
    # and its closing concatenation, one slice's scratch and the plan
    rho = _f2xz_curve_steps(f2xz_nu, 4, None)[-1]
    plan = _window_plan(rho, f2xz_nu)
    assert int(plan.wlen.sum()) == 1_163_835
    bound = measures._live_rows(plan, measures._slices(plan.wlen), None) * measures._ROW_BYTES
    assert bound < 45_000_000
    out, peak = _traced_peak(lambda: convolve(rho, f2xz_nu))
    assert len(out) == 1_163_835 and peak <= bound


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize(
    "group, wrap", [(Z, lambda v: (v,)), (F2xZ, lambda v: ((), (v,)))], ids=["free-abelian(1)", "F2xZ"]
)
def test_coordinates_past_int64_take_the_side_dict(group, wrap, mode):
    far = wrap(2**64)
    one = Fraction(1) if mode == "exact" else 1.0
    e, x = delta(group, mode=mode), delta(group, far, mode=mode)
    for a, b in ((e, x), (x, e)):
        got = convolve(a, b)
        assert got.as_dict() == convolve_reference(a, b).as_dict() == {far: one}
        assert_placed(got)
    assert tv_left_translate(e, far) == tv_distance(_translate(far, e), e) == (2 * one, 0 * one)
    # far moves the pool atom e out of range, and its inverse brings the side atom far back
    mu = SparseMeasure.from_items(group, [(group.identity, one / 2), (far, one / 2)], mode)
    for t in (far, group.inv(far)):
        assert tv_left_translate(mu, t) == tv_distance(_translate(t, mu), mu)


def test_products_that_underflow_to_zero_are_dropped():
    # 1e-200 * 1e-200 is 0.0, and from_items keeps no zero atom, so neither
    # kernel route may: the first pair takes the sort route (with a side
    # atom), the second the window route
    tiny = 1e-200
    sort_pair = (
        SparseMeasure.from_items(F2xZ, [(((1,), (0,)), tiny), (((), (40000,)), tiny)], "float"),
        SparseMeasure.from_items(F2xZ, [(((2,), (0,)), tiny)], "float"),
    )
    line_pair = (
        SparseMeasure.from_items(F2xZ, [(((1,), (c,)), tiny) for c in range(40)], "float"),
        SparseMeasure.from_items(F2xZ, [(((), (z,)), tiny) for z in (-1, 0, 1)], "float"),
    )
    assert _window_plan(*sort_pair) is None and _window_plan(*line_pair) is not None
    for mu, nu in (sort_pair, line_pair):
        assert convolve_reference(mu, nu).as_dict() == {}
        assert convolve(mu, nu).as_dict() == {}


def test_budget_ranks_an_atom_reached_from_both_pools_once():
    # (e|(30000)) gets 0.15 from a product of in-range atoms and 0.15 from
    # an atom beyond the 16-bit central field; merged it is the heaviest
    mu = SparseMeasure.from_items(
        F2xZ, [(((), (40000,)), 0.3), (((), (0,)), 0.3), (((1,), (0,)), 0.4)], "float"
    )
    nu = SparseMeasure.from_items(F2xZ, [(((), (-10000,)), 0.5), (((), (30000,)), 0.5)], "float")
    got = convolve(mu, nu, budget=2).as_dict()
    assert got == convolve_reference(mu, nu, budget=2).as_dict()
    assert got[((), (30000,))] == 0.3


def test_codecless_float_convolve_never_calls_the_oracle(monkeypatch):
    oracle = measures.convolve_reference

    def refuse(*args, **kwargs):
        raise AssertionError("float convolve called convolve_reference")

    monkeypatch.setattr(measures, "convolve_reference", refuse)
    lamp_z = uniform(GSet(LAMPxZ, frozenset(
        [(((), 1), (0,)), (((), -1), (1,)), (((0,), 0), (0,)), (((0, 1), 1), (-1,))]
    )))
    z7 = uniform(GSet(Z7, frozenset([(1, 0, 0, 0, 0, 0, 2), (0, -1, 0, 0, 3, 0, 0)])))
    for nu in (lamp_z, z7):
        assert nu.group.codec() is None
        rho = convolve(nu, nu)
        for budget in (None, 3):
            got = convolve(rho, nu, budget=budget).as_dict()
            want = oracle(rho, nu, budget=budget).as_dict()
            assert set(got) == set(want)
            assert all(got[x] == pytest.approx(m, abs=1e-12) for x, m in want.items())


@given(f2_measures)
@settings(max_examples=30, deadline=None)
def test_serialization_round_trip_exact(mu):
    again = SparseMeasure.from_text(mu.to_text())
    assert again.as_dict() == mu.as_dict()
    assert again.lost_mass == mu.lost_mass
    assert again.mode == "exact"


def test_serialization_round_trip_float(f2xz_nu):
    again = SparseMeasure.from_text(f2xz_nu.to_text())
    assert again.to_text() == f2xz_nu.to_text()


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_weights_and_ledgers_that_break_the_bracket_are_refused(mode):
    # a negative ledger would make tv_left_translate's bracket negative, and
    # a NaN or infinite weight leaves no bracket at all
    e = F2xZ.identity
    if mode == "float":
        one, weights, ledgers = 1.0, [math.nan, math.inf, -math.inf, -0.5], [-0.25, math.nan, math.inf]
    else:
        one, weights, ledgers = Fraction(1), [Fraction(-1, 3), math.nan], [Fraction(-1, 4)]
    for w in weights:
        with pytest.raises(SpecMismatchError, match="weight"):
            SparseMeasure.from_items(F2xZ, [(e, one), (((1,), (0,)), w)], mode)
    for lost in ledgers:
        with pytest.raises(SpecMismatchError, match="lost_mass"):
            SparseMeasure.from_items(F2xZ, [(e, one)], mode, lost_mass=lost)
    text = delta(F2xZ, mode=mode).to_text()
    if mode == "float":
        edits = [("0x1.0000000000000p+0 (e|(0))", "nan (e|(0))"), ("lost 0x0.0p+0", "lost -0x1p-2")]
    else:
        edits = [("lost 0/1", "lost -1/4")]
    for old, new in edits:
        assert old in text
        with pytest.raises(SpecMismatchError):
            SparseMeasure.from_text(text.replace(old, new))


@pytest.mark.parametrize(
    "mode, old, new",
    [
        ("exact", "1/1 (e|(0))", "nan (e|(0))"),
        ("exact", "1/1 (e|(0))", "1/0 (e|(0))"),
        ("float", "atoms 1", "atoms x"),
        ("float", "mode float\n", ""),
    ],
    ids=["exact-nan", "zero-denominator", "atom-count", "missing-header"],
)
def test_malformed_measure_text_is_a_spec_mismatch(mode, old, new):
    text = delta(F2xZ, mode=mode).to_text()
    assert old in text
    with pytest.raises(SpecMismatchError):
        SparseMeasure.from_text(text.replace(old, new))


def test_serialization_skips_comment_lines():
    mu = delta(Z, (3,), mode="exact")
    text = "# fingerprint=abc seed=1\n" + mu.to_text()
    assert SparseMeasure.from_text(text).as_dict() == mu.as_dict()


def test_mode_mixing_rejected():
    from groupwalk.errors import SpecMismatchError

    mu = delta(F2, mode="exact")
    nu = delta(F2, mode="float")
    with pytest.raises(SpecMismatchError):
        convolve(mu, nu)


@pytest.mark.parametrize(
    "group, atoms",
    [(F2, [(1,), (-1,), (2,), (-2,)]), (F2xZ, [((), (j,)) for j in range(-2, 3)])],
    ids=["sort-route", "dense-route"],
)
def test_exact_rows_are_priced_with_their_numerators(group, atoms, monkeypatch):
    # numerators past 2^63 over 2^400, as deep exact curves carry: they stay
    # Python ints, the product's denominator is 2^800, so an exact row is
    # priced at 16 bytes plus that int's size, and a cap of four float rows
    # per pair lies between the prices (the window route's holds its set, a
    # slice's scratch and its plan)
    exact = SparseMeasure.from_items(group, {x: Fraction(2**398 + 1, 2**400) for x in atoms}, "exact")
    assert exact._masses.dtype == object
    flt = SparseMeasure.from_items(group, {x: 2.0**-400 for x in atoms}, "float")
    assert (_window_plan(flt, flt) is not None) == (group is F2xZ)
    monkeypatch.setattr(measures, "_ACC_BYTES", 4 * measures._ROW_BYTES * len(atoms) ** 2)
    assert len(convolve(flt, flt)) == len(convolve_reference(flt, flt))
    with pytest.raises(BudgetError, match="accumulator cap"):
        convolve(exact, exact)


def _lamp_nu(mode):
    """nu_4 of the lamplighter construction with R = {lamp 0} in the lamps subgroup."""
    from groupwalk.amenable import AmenableSubgroup
    from groupwalk.construction import (
        AlphaSchedule, VisibilityCatalogue, build_measure, make_entry, new_state, run_construction,
    )

    entry = make_entry(GSet(LAMP, frozenset([((0,), 0)])), AmenableSubgroup(LAMP, "lamps"))
    state = run_construction(new_state(LAMP, VisibilityCatalogue((entry,), seed=5), AlphaSchedule("harmonic")), 4)
    return build_measure(state, mode=mode)


def test_lamplighter_sort_route_keeps_its_bytes():
    # nu_4 * nu_4 on the sort route: 514 x 514 rows, seven atoms of nu a
    # `mul` call and several flushes; the digest of (codes, masses,
    # lost_mass.hex()) was taken while each atom of nu had its own one-element
    # product kernel, so the rows and their order are those of that kernel
    nu = _lamp_nu("float")
    assert len(nu._codes) == 514 and not nu._side
    sq = convolve(nu, nu)
    h = hashlib.sha256()
    for part in (sq._codes.tobytes(), sq._masses.tobytes(), sq.lost_mass.hex().encode()):
        h.update(part)
    assert h.hexdigest() == "e12f9dbb4f070401d4378e6a2aa01d4f67cceb54dbe3f57b834f0a9d1fed99a5"


def test_lamplighter_sort_route_is_exact():
    # nu_4 times its first 40 atoms: 514 x 40 rows, six `mul` calls and a flush
    mu = _lamp_nu("exact")
    nu = SparseMeasure.from_items(LAMP, mu.items_canonical()[:40], "exact")
    got, want = convolve(mu, nu), convolve_reference(mu, nu)
    assert got.as_dict() == want.as_dict() and got.lost_mass == want.lost_mass


# -- int64 numerators ----------------------------------------------------------


def _on_python_ints(monkeypatch, f, *args):
    """f(*args) with every exact numerator made a Python int, the object path."""
    with monkeypatch.context() as mp:
        mp.setattr(measures, "_dtype", lambda mode, bound=0: np.float64 if mode == "float" else object)
        return f(*args)


def _pool(mu):
    return mu._codes.tolist(), mu._masses.tolist(), mu._side, mu._den, mu.lost_mass


# measures over denominators near 2^31 with totals from 1/2 to 12: a product's
# bound, mu's numerator sum times nu's, is about t_mu * t_nu * 2^62 for totals
# t, so it falls on both sides of 2^63; line shifts let the window route run,
# and long words and far coordinates put atoms in the side dict
near_2_31 = st.sampled_from([2**31 - 1, 2**31 + 11, 3 * 2**29 + 1])
line_shifts = st.tuples(st.just(()), st.tuples(st.integers(-3, 3)))


@st.composite
def near_2_31_measures(draw):
    d = draw(near_2_31)
    # each atom weighs between 1/2 and 2
    atoms = st.tuples(st.one_of(line_shifts, f2xz_elements), st.integers(d // 2, 2 * d))
    items = [(x, Fraction(n, d)) for x, n in draw(st.lists(atoms, min_size=1, max_size=6))]
    return SparseMeasure.from_items(F2xZ, items, "exact", lost_mass=Fraction(1, d))


def test_int64_numerators_equal_the_reference_and_the_object_path(monkeypatch):
    sides = []

    @given(near_2_31_measures(), near_2_31_measures(), st.integers(1, 12), f2xz_elements)
    @settings(max_examples=80, deadline=None)
    def check(mu, nu, budget, t):
        bound = mu._weight_sum() * nu._weight_sum()
        sides.append(bound < 1 << 63)
        for m in (mu, nu):
            assert_placed(m)
        for b in (None, budget):
            got = convolve(mu, nu, budget=b)
            want = convolve_reference(mu, nu, budget=b)
            assert got._masses.dtype == (np.int64 if bound < 1 << 63 else object)
            assert_placed(got, bound)
            assert got.as_dict() == want.as_dict() and got.lost_mass == want.lost_mass
            assert _pool(got) == _pool(_on_python_ints(monkeypatch, convolve, mu, nu, b))
        # got's numerator sum is about 2^62 t_mu t_nu, so twice it, the
        # translate's bound, straddles 2^63 as well
        for m in (mu, nu, got):
            tv = tv_left_translate(m, t)
            assert tv == tv_distance(_translate(t, m), m)
            assert tv == _on_python_ints(monkeypatch, tv_left_translate, m, t)
        tv = tv_distance(mu, nu)
        a, b = mu.as_dict(), nu.as_dict()
        want = sum(abs(a.get(x, 0) - b.get(x, 0)) for x in a.keys() | b.keys())
        assert tv == (want, mu.lost_mass + nu.lost_mass)
        assert tv == _on_python_ints(monkeypatch, tv_distance, mu, nu)

    check()
    assert set(sides) == {True, False}, sides


def test_an_exact_f2xz_step_takes_the_window_route_on_int64(monkeypatch):
    # nu_4 has a 12-bit denominator, so nu_4 * nu_4 has a bound of 2^24
    from groupwalk.construction import build_measure
    from groupwalk.presets import preset_state

    nu = build_measure(preset_state("f2xz", seed=20260813, stages=4), mode="exact")
    assert nu._den < 1 << 12 and nu._masses.dtype == np.int64
    ran = []
    real = measures._stream_windows
    monkeypatch.setattr(measures, "_stream_windows", lambda *a: ran.append(a[0]._masses.dtype) or real(*a))
    got = convolve(nu, nu)
    assert ran == [np.int64] and got._masses.dtype == np.int64
    want = convolve_reference(nu, nu)
    assert got.as_dict() == want.as_dict() and got.lost_mass == want.lost_mass


def test_the_50_stage_amenable_measure_stays_on_python_ints(z_state):
    # its 143-bit denominator bounds its numerators' sum past 2^63
    from groupwalk.construction import build_measure

    nu = build_measure(z_state, mode="exact")
    assert nu._den.bit_length() == 143 and nu._masses.dtype == object
    assert convolve(nu, nu)._masses.dtype == object
    assert all(type(w) is int for w in nu._masses.tolist())


def test_no_numpy_int_leaves_the_int64_path():
    # every mass read out is a Fraction of Python ints: as_dict values,
    # lost_mass (with pruned weight in it), total_mass and both TV values
    from groupwalk.construction import build_measure
    from groupwalk.presets import preset_state

    nu = build_measure(preset_state("f2xz", seed=20260813, stages=4), mode="exact")
    rho = convolve(convolve(nu, nu, budget=40), nu, budget=60)
    assert rho._masses.dtype == np.int64 and rho.lost_mass > nu.lost_mass
    t = F2xZ.element_from_text("(e|(1))")
    masses = [*rho.as_dict().values(), rho.lost_mass, rho.total_mass()]
    masses += [*tv_left_translate(rho, t), *tv_distance(rho, nu)]
    for m in masses:
        assert type(m) is Fraction and type(m.numerator) is int and type(m.denominator) is int


def test_tv_distance_scales_an_empty_measure_by_a_denominator_past_2_63():
    # the cross-scaled sums are 0 * 2^70 + 1 * 1, but the scale 2^70 itself
    # does not fit an int64
    empty = SparseMeasure.from_items(F2, [], "exact")
    nu = SparseMeasure.from_items(F2, [((1,), Fraction(1, 2**70))], "exact")
    assert tv_distance(empty, nu) == tv_distance(nu, empty) == (Fraction(1, 2**70), 0)
