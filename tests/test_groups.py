import hashlib
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from groupwalk import (
    BudgetError,
    CyclicGroup,
    DirectProduct,
    FreeAbelian,
    FreeGroup,
    GSet,
    Lamplighter,
    SpecMismatchError,
    conjugate_set,
    enumerate_element,
    parse_group,
    product_power,
)
from groupwalk import groups
from groupwalk.groups import iterated_conjugate_set

F2 = FreeGroup(2)
Z2 = FreeAbelian(2)
C5 = CyclicGroup(5)
F2xZ = DirectProduct((FreeGroup(2), FreeAbelian(1)))
LAMP = Lamplighter()


def ball(group, radius):
    """All elements of word length <= radius, from the group's shells."""
    return GSet(group, frozenset(x for r in range(radius + 1) for x in group.shell(r)))

ALL_GROUPS = [F2, FreeGroup(1), Z2, C5, F2xZ, LAMP]


def elements(g):
    """Hypothesis strategy producing valid elements of g."""
    if isinstance(g, FreeGroup):
        letters = st.integers(-g.rank, g.rank).filter(lambda l: l != 0)
        return st.lists(letters, max_size=8).map(
            lambda ls: reduce(g.mul, [(l,) for l in ls], g.identity)
        )
    if isinstance(g, FreeAbelian):
        return st.tuples(*[st.integers(-6, 6)] * g.rank)
    if isinstance(g, CyclicGroup):
        return st.integers(0, g.n - 1)
    if isinstance(g, DirectProduct):
        return st.tuples(*[elements(f) for f in g.factors])
    if isinstance(g, Lamplighter):
        lamps = st.lists(st.integers(-3, 3), max_size=4).map(
            lambda ls: tuple(sorted(set(ls)))
        )
        return st.tuples(lamps, st.integers(-3, 3))
    raise AssertionError(g)


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: g.spec_text())
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_group_axioms(g, data):
    x = data.draw(elements(g))
    y = data.draw(elements(g))
    z = data.draw(elements(g))
    assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
    assert g.mul(x, g.identity) == x
    assert g.mul(g.identity, x) == x
    assert g.mul(x, g.inv(x)) == g.identity
    assert g.inv(g.inv(x)) == x


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: g.spec_text())
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_word_length_subadditive(g, data):
    x = data.draw(elements(g))
    y = data.draw(elements(g))
    assert g.word_length(g.mul(x, y)) <= g.word_length(x) + g.word_length(y)
    assert g.word_length(g.inv(x)) == g.word_length(x)
    assert g.word_length(g.identity) == 0


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: g.spec_text())
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_element_text_round_trip(g, data):
    x = data.draw(elements(g))
    assert g.element_from_text(g.element_to_text(x)) == x


def test_free_reduction_is_canonical():
    # multiplying 'abB' letter by letter must collapse to 'a'
    w = reduce(F2.mul, [(1,), (2,), (-2,)], F2.identity)
    assert w == (1,)
    assert F2.element_from_text("abB") == (1,)
    assert F2.element_from_text("aA") == ()


@given(st.lists(st.integers(-2, 2).filter(lambda l: l != 0), max_size=14))
def test_free_words_never_contain_cancelling_pairs(ls):
    w = reduce(F2.mul, [(l,) for l in ls], F2.identity)
    for u, v in zip(w, w[1:]):
        assert u != -v


def test_ball_sizes_free_group():
    # |sphere(r)| = 4 * 3^(r-1) in the rank-2 free group
    expected = [1, 5, 17, 53, 161]
    for r, n in enumerate(expected):
        assert len(ball(F2, r)) == n


def test_ball_sizes_free_abelian():
    # |ball(r)| = 2r^2 + 2r + 1 in Z^2
    for r in range(5):
        assert len(ball(Z2, r)) == 2 * r * r + 2 * r + 1


def test_lamplighter_ball_against_bfs():
    # breadth-first search over the generators is an independent oracle for
    # both ball membership and word length
    gens = LAMP.generators()
    dist = {LAMP.identity: 0}
    frontier = [LAMP.identity]
    for d in range(1, 5):
        nxt = []
        for x in frontier:
            for s in gens:
                y = LAMP.mul(x, s)
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    for r in range(5):
        expected = {x for x, d in dist.items() if d <= r}
        assert ball(LAMP, r).elements == frozenset(expected)
    for x, d in dist.items():
        assert LAMP.word_length(x) == d


def test_enumeration_starts_at_identity_and_is_injective():
    assert enumerate_element(F2, 1) == F2.identity
    seen = [enumerate_element(F2, i) for i in range(1, 200)]
    assert len(set(seen)) == len(seen)
    # enumeration is sorted by the spiral order
    keys = [F2.sort_key(x) for x in seen]
    assert keys == sorted(keys)


@pytest.mark.parametrize("g", [F2, Z2, F2xZ, LAMP], ids=lambda g: g.spec_text())
def test_enumeration_covers_balls(g):
    b = ball(g, 2)
    listed = {enumerate_element(g, i) for i in range(1, len(b) + 1)}
    assert listed == b.elements


@pytest.mark.parametrize(
    "spec, digest",
    [
        (
            "product(free(2),free-abelian(1))",
            "0d4a923a8491203ecb82d1865496cfe61e6caebb643a508c241ed92c0094540a",
        ),
        ("lamplighter(2)", "b77c2e43dbe666685044b240f137cccdb4dc3d7663142e1957656aefd23bf1ca"),
        (
            "product(free-abelian(1),cyclic(3))",
            "a4501a909a9b5cb9cca4cb774be8d6792798bbe91c7333a05114751da88d169d",
        ),
    ],
    ids=["f2xz", "lamplighter", "z-x-c3"],
)
def test_enumeration_keeps_its_order(spec, digest):
    # the spiral enumeration c_i is a declared sequence: its first 200
    # elements, one text per line, must not move
    g = parse_group(spec)
    text = "\n".join(g.element_to_text(enumerate_element(g, i)) for i in range(1, 201))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_enumeration_exhaustion_on_finite_group():
    assert {enumerate_element(C5, i) for i in range(1, 6)} == set(range(5))
    with pytest.raises(SpecMismatchError):
        enumerate_element(C5, 6)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_product_power_matches_brute_force(data):
    els = data.draw(st.lists(elements(Z2), min_size=1, max_size=4))
    A = GSet(Z2, frozenset(els))
    n = data.draw(st.integers(1, 3))
    got = product_power(A, n, cap=10**6)
    want = A.elements
    for _ in range(n - 1):
        want = frozenset(Z2.mul(x, y) for x in want for y in A.elements)
    assert got.elements == want


def test_product_power_budget():
    A = GSet(F2, frozenset([(1,), (-1,), (2,), (-2,)]))
    with pytest.raises(BudgetError):
        product_power(A, 10, cap=3)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_conjugate_set_oracle(data):
    els = data.draw(st.lists(elements(F2), min_size=1, max_size=3))
    by = data.draw(st.lists(elements(F2), min_size=1, max_size=3))
    R = GSet(F2, frozenset(els))
    A = GSet(F2, frozenset(by))
    got = conjugate_set(R, A, cap=10**6)
    want = frozenset(
        F2.mul(F2.mul(F2.inv(a), r), a) for r in R.elements for a in A.elements
    )
    assert got.elements == want


@pytest.mark.parametrize("g", [F2, F2xZ, LAMP], ids=lambda g: g.spec_text())
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_iterated_conjugation_matches_product_power(g, data):
    R = GSet(g, frozenset(data.draw(st.lists(elements(g), min_size=1, max_size=3))))
    A = GSet(g, frozenset(data.draw(st.lists(elements(g), max_size=3))) | {g.identity})
    i = data.draw(st.integers(1, 4))
    want = conjugate_set(R, product_power(A, i, cap=10**6), cap=10**6)
    got = iterated_conjugate_set(R, A, i, cap=10**6)
    assert got.elements == want.elements and not got.truncated
    # e is in A, so the rounds only grow: a cap is exceeded by some round
    # exactly when the whole set exceeds it
    cap = data.draw(st.integers(len(A), len(A) + 6))
    capped = iterated_conjugate_set(R, A, i, cap)
    assert capped.elements <= want.elements
    assert len(capped) <= cap
    assert capped.truncated == (len(want) > cap)


def test_iterated_conjugation_pair_guard_truncates(monkeypatch):
    R = GSet(F2, frozenset([(1,)]))
    A = GSet(F2, frozenset([(), (1,), (-1,), (2,), (-2,)]))
    want = conjugate_set(R, product_power(A, 3, cap=10**6), cap=10**6)
    monkeypatch.setattr(groups, "_PAIR_GUARD", 20)
    got = iterated_conjugate_set(R, A, 3, cap=10**6)
    assert got.truncated
    assert got.elements < want.elements


def test_cap_inside_one_word_length_keeps_a_canonical_prefix():
    # both conjugates of a, by b and by B, have length 3, so no full radius
    # fits a cap of 1; the truncation keeps the first in canonical order
    R, B = GSet(F2, frozenset([(1,)])), GSet(F2, frozenset([(2,), (-2,)]))
    full = conjugate_set(R, B, cap=10)
    assert len(full) == 2 and {F2.word_length(x) for x in full.elements} == {3}
    capped = conjugate_set(R, B, cap=1)
    assert capped.truncated
    assert capped.elements == frozenset(full.sorted_elements()[:1])


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_symmetrized_gset(data):
    els = data.draw(st.lists(elements(LAMP), min_size=1, max_size=5))
    A = GSet(LAMP, frozenset(els)).symmetrized()
    assert A.is_symmetric()
    assert set(els) <= A.elements
    # symmetrizing twice is idempotent
    assert A.symmetrized().elements == A.elements


def test_gset_codes_are_encoded_once_in_elements_order():
    A = ball(LAMP, 3)
    codec = LAMP.codec()
    assert A.codes.tolist() == [codec.encode_one(x) for x in A.elements]
    assert A.codes is A.codes and not A.codes.flags.writeable
    # one element past the window, or no codec at all, gives None
    assert GSet(LAMP, A.elements | {((24,), 0)}).codes is None
    codecless = parse_group("product(lamplighter(2), free-abelian(1))")
    assert GSet(codecless, frozenset([codecless.identity])).codes is None


def test_parse_group_round_trip():
    for g in ALL_GROUPS:
        assert parse_group(g.spec_text()).spec_text() == g.spec_text()
    # whitespace is tolerated
    assert parse_group("product( free(2), free-abelian(1) )").spec_text() == F2xZ.spec_text()
    with pytest.raises(SpecMismatchError):
        parse_group("octonion(3)")


def test_centrality():
    assert F2xZ.is_central(((), (5,)))
    assert not F2xZ.is_central(((1,), (0,)))
    assert all(C5.is_central(x) for x in range(5))
    assert not F2.is_central((1,))


def test_amenability_flags():
    assert not F2.is_amenable()
    assert Z2.is_amenable()
    assert C5.is_amenable()
    assert LAMP.is_amenable()
    assert not F2xZ.is_amenable()
    assert DirectProduct((FreeAbelian(1), CyclicGroup(3))).is_amenable()


LAMPxZ = DirectProduct((Lamplighter(), FreeAbelian(1)))


def far_elements(g):
    """Elements past the codec's fields: free words longer than it packs,
    coordinates past 16 bits, lamps past +-23, markers past 16 bits."""
    if isinstance(g, FreeGroup):
        return st.lists(st.sampled_from([(1, 2), (1, -2), (-1, 2)]), min_size=12, max_size=16).map(
            lambda ps: reduce(g.mul, [p for p in ps], g.identity)
        )
    if g == F2xZ:
        return st.tuples(elements(F2), st.tuples(st.sampled_from([-40000, 32768, 70000])))
    if isinstance(g, Lamplighter):
        return st.tuples(
            st.sampled_from([(24,), (-30, 0), (-1, 25)]), st.sampled_from([0, 2, 40000, -32769])
        )
    return st.tuples(far_elements(LAMP), st.tuples(st.integers(-3, 3)))


@pytest.mark.parametrize("g", [F2, F2xZ, LAMP, LAMPxZ], ids=lambda g: g.spec_text())
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_conjugate_set_on_codes_matches_the_group_law(g, data):
    # the codec conjugates the pairs it can encode; every other pair, and
    # every pair of the codec-less product, takes g.conjugate
    some = st.lists(st.one_of(elements(g), far_elements(g)), min_size=1, max_size=5)
    A = GSet(g, frozenset(data.draw(some)))
    B = GSet(g, frozenset(data.draw(some)))
    want = frozenset(g.conjugate(a, b) for a in A.elements for b in B.elements)
    assert conjugate_set(A, B, cap=10**6).elements == want


def test_iterated_conjugation_calls_conjugate_set_once_a_round(monkeypatch):
    # the tracer times conjugation by wrapping the module's conjugate_set
    calls = []
    real = groups.conjugate_set
    monkeypatch.setattr(groups, "conjugate_set", lambda *a: calls.append(1) or real(*a))
    R = GSet(F2, frozenset([(1,)]))
    A = GSet(F2, frozenset([(), (2,), (-2,)]))
    assert len(iterated_conjugate_set(R, A, 4, cap=10**6)) == 9  # b^-k a b^k, |k| <= 4
    assert len(calls) == 4


@pytest.mark.parametrize(
    "lamps, ok",
    [
        ((), True),
        ((0,), True),
        ((-23, -1, 0, 4, 23), True),
        ((True, 2), True),  # an int subclass is an int
        ((2, 1), False),
        ((0, 3, 2), False),
        ((1, 1), False),
        ((-1, 0, 0, 5), False),
        ((1.0,), False),
        ((0, 1.5), False),
        (("a",), False),
        ((1, "a"), False),  # refused before any comparison
        ((np.int64(1),), False),
        ((None, 1), False),
    ],
)
def test_lamplighter_validate_refuses_unsorted_repeated_and_non_int_lamps(lamps, ok):
    x = (lamps, 0)
    if ok:
        LAMP.validate(x)
        return
    with pytest.raises(SpecMismatchError) as err:
        LAMP.validate(x)
    assert str(err.value) == f"lamps must be a strictly increasing int tuple: {lamps!r}"
