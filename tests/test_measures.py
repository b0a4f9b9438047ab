import math
from fractions import Fraction
from functools import reduce

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
    translate_left,
    tv_distance,
    uniform,
)
from groupwalk import measures
from groupwalk.measures import _line_plan, tv_left_translate

F2 = FreeGroup(2)
Z = FreeAbelian(1)
F2xZ = DirectProduct((FreeGroup(2), FreeAbelian(1)))
# the two codec-less groups: their float measures keep every atom in the side dict
LAMP = Lamplighter()
Z7 = FreeAbelian(7)

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
# lit lamps and the marker both drawn from [-4, 4]
lamp_elements = st.tuples(
    st.lists(st.integers(-4, 4), unique=True, max_size=4).map(lambda ls: tuple(sorted(ls))),
    st.integers(-4, 4),
)
z7_elements = st.tuples(*[st.integers(-2, 2)] * 7)


def assert_placed(mu):
    """The placement rule: in float mode every atom the codec encodes is in
    the sorted pool, every other atom in the side dict."""
    codec = mu.group.codec() if mu.mode == "float" else None
    codes = mu._codes.tolist()
    assert all(a < b for a, b in zip(codes, codes[1:]))
    assert codec is not None or not codes
    for c in codes:
        x = codec.decode_one(c)
        mu.group.validate(x)
        assert codec.encode_one(x) == c
    assert codec is None or all(codec.encode_one(x) is None for x in mu._side)


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
    v1, _ = tv_distance(translate_left(t, mu), translate_left(t, nu))
    assert v1 == v0


# exact F2 measures are compared without tolerance; float F2 x Z measures
# with long words and edge central coordinates carry side atoms
@given(st.one_of(st.tuples(f2_measures, words), st.tuples(f2xz_float_measures, f2xz_elements)))
@settings(max_examples=80, deadline=None)
def test_tv_left_translate_matches_two_measure_path(case):
    mu, t = case
    direct = tv_left_translate(mu, t)
    via = tv_distance(translate_left(t, mu), mu)
    assert abs(direct[0] - via[0]) <= (0 if mu.mode == "exact" else 1e-12)


def test_tv_left_translate_central_without_codec():
    # free-abelian(7) has no codec and every element is central, so the
    # vectorized central route must not run on its empty pool
    g = FreeAbelian(7)
    assert g.codec() is None
    t = (1, 0, 0, 0, 0, 0, 0)
    assert tv_left_translate(SparseMeasure.from_items(g, [], "float"), t) == (0.0, 0.0)
    assert tv_left_translate(delta(g), t) == (2.0, 0.0)


def test_tv_left_translate_packed_central_path(f2xz_nu):
    # the packed fast path for central t must agree with the dict route
    t = ((), (1,))
    fast = tv_left_translate(f2xz_nu, t)
    slow = tv_distance(translate_left(t, f2xz_nu), f2xz_nu)
    assert fast[0] == pytest.approx(slow[0], abs=1e-12)


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
    # two 500-atom float measures on the packed kernel, with two worker
    # threads; the result must match the plain dict computation
    items1 = [((i,), 1.0 / 500) for i in range(-249, 251)]
    mu = SparseMeasure.from_items(Z, items1, mode="float")
    items2 = [((3 * i,), 1.0 / 500) for i in range(-249, 251)]
    nu = SparseMeasure.from_items(Z, items2, mode="float")
    fast = convolve(mu, nu, threads=2)
    ref = convolve_reference(mu, nu)
    v, _ = tv_distance(fast, ref)
    assert v < 1e-12
    assert len(fast) == len(ref)


@st.composite
def line_pairs(draw):
    """(mu, nu) on F2 x Z that meet the dense route's conditions: mu holds
    one to three fibers (free words) of 18-24 central coordinates out of a
    24-wide window, so fibers have holes; nu holds three to six line shifts
    out of a 9-wide kernel, so the kernel can be sparse, plus a few other atoms."""
    fibers = draw(st.lists(st.lists(st.integers(0, 2), max_size=3), min_size=1, max_size=3))
    mu_items = {}
    for first, rest in enumerate(fibers):
        base = draw(st.integers(-100, 100))
        for off in draw(st.sets(st.integers(0, 23), min_size=18)):
            mu_items[(_reduced_word(first, rest), (base + off,))] = draw(float_masses)
    shifts = draw(st.sets(st.integers(-4, 4), min_size=3, max_size=6))
    nu_items = {((), (z,)): draw(float_masses) for z in shifts}
    for x in draw(st.lists(st.tuples(long_words.filter(bool), st.tuples(centrals)), max_size=3)):
        nu_items[x] = draw(float_masses)
    return (
        SparseMeasure.from_items(F2xZ, mu_items, "float", lost_mass=draw(float_lost)),
        SparseMeasure.from_items(F2xZ, nu_items, "float"),
        True,
    )


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
            assert _line_plan(mu, nu) is not None
        if group is F2xZ and _leaves_line_field(mu, nu):
            assert _line_plan(mu, nu) is None  # edge of the field: the sort route
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


def test_products_that_underflow_to_zero_are_dropped():
    # 1e-200 * 1e-200 is 0.0, and from_items keeps no zero atom, so neither
    # kernel route may: the first pair takes the sort route (with a side
    # atom), the second the dense route
    tiny = 1e-200
    sort_pair = (
        SparseMeasure.from_items(F2xZ, [(((1,), (0,)), tiny), (((), (40000,)), tiny)], "float"),
        SparseMeasure.from_items(F2xZ, [(((2,), (0,)), tiny)], "float"),
    )
    line_pair = (
        SparseMeasure.from_items(F2xZ, [(((1,), (c,)), tiny) for c in range(40)], "float"),
        SparseMeasure.from_items(F2xZ, [(((), (z,)), tiny) for z in (-1, 0, 1)], "float"),
    )
    assert _line_plan(*sort_pair) is None and _line_plan(*line_pair) is not None
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


def test_convolve_threads_do_not_change_bytes(f2xz_nu):
    one = convolve(f2xz_nu, f2xz_nu, budget=50_000, threads=1)
    four = convolve(f2xz_nu, f2xz_nu, budget=50_000, threads=4)
    assert one.to_text() == four.to_text()


def _lamp_step():
    return uniform(GSet(LAMP, frozenset([((), 1), ((), -1), ((0,), 0), ((0, 1), 1)])))


def test_lamplighter_convolve_threads_do_not_change_bytes():
    nu = _lamp_step()
    rho = convolve(convolve(nu, nu), nu)
    one = convolve(rho, nu, budget=40, threads=1)
    four = convolve(rho, nu, budget=40, threads=4)
    assert one.to_text() == four.to_text()


def test_codecless_float_convolve_never_calls_the_oracle(monkeypatch):
    oracle = measures.convolve_reference

    def refuse(*args, **kwargs):
        raise AssertionError("float convolve called convolve_reference")

    monkeypatch.setattr(measures, "convolve_reference", refuse)
    lamp = _lamp_step()
    z7 = uniform(GSet(Z7, frozenset([(1, 0, 0, 0, 0, 0, 2), (0, -1, 0, 0, 3, 0, 0)])))
    for nu in (lamp, z7):
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
