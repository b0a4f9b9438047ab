from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from groupwalk.codecs import codec_for
from groupwalk.groups import (
    CyclicGroup,
    DirectProduct,
    FreeAbelian,
    FreeGroup,
    Lamplighter,
)
from groupwalk.measures import convolve, convolve_reference, delta, tv_left_translate

F2 = FreeGroup(2)
F2xZ = DirectProduct((FreeGroup(2), FreeAbelian(1)))

letters = st.integers(-2, 2).filter(lambda l: l != 0)
words = st.lists(letters, max_size=16).map(
    lambda ls: reduce(F2.mul, [(l,) for l in ls], F2.identity)
)


def _reduced_word(first, rest):
    # each letter is one of the three that do not cancel the letter before it
    w = [(1, -1, 2, -2)[first]]
    for r in rest:
        w.append([l for l in (1, -1, 2, -2) if l != -w[-1]][r])
    return tuple(w)


def reduced_words(max_len):
    """Reduced F2 words, short ones and ones within two letters of `max_len`."""
    return st.one_of(
        st.just(()),
        *(
            st.builds(_reduced_word, st.integers(0, 3), st.lists(st.integers(0, 2), min_size=lo, max_size=hi))
            for lo, hi in ((0, 5), (max_len - 3, max_len - 1))
        ),
    )


def _one(c, t):
    """t's code as a one-element operand of `mul`, the shape its callers use."""
    return np.array([c.encode_one(t)], dtype=np.uint64)


def _check_mul(g, xs, t, left=True):
    """codec.mul of t's code by every code, against g.mul(t, x) (with
    left=False, codes by t's code, against g.mul(x, t)): `ok` holds exactly
    when the product encodes, and then the code is the product's code. A t
    that does not encode never reaches `mul`; its callers' tests cover it."""
    c = codec_for(g)
    codes = np.array([c.encode_one(x) for x in xs], dtype=np.uint64)
    out, ok = c.mul(_one(c, t), codes) if left else c.mul(codes, _one(c, t))
    for x, o, fits in zip(xs, out.tolist(), ok.tolist()):
        want = c.encode_one(g.mul(t, x) if left else g.mul(x, t))
        assert fits == (want is not None)
        if fits:
            assert o == want


@given(words)
def test_free_codec_round_trip(w):
    c = codec_for(F2)
    code = c.encode_one(w)
    assert code is not None
    assert c.decode_one(code) == w


@given(st.lists(words, min_size=1, max_size=20), letters)
@settings(max_examples=80)
def test_free_codec_mul_right_letter_matches_group(ws, l):
    c = codec_for(F2)
    codes = np.array([c.encode_one(w) for w in ws], dtype=np.uint64)
    out, ok = c.mul(codes, _one(c, (l,)))
    for w, o, fits in zip(ws, out, ok):
        want = F2.mul(w, (l,))
        if fits:
            assert c.decode_one(int(o)) == want
        else:
            # overflow only happens when the product is genuinely longer
            assert len(want) > c.max_len


@given(st.lists(words, min_size=1, max_size=10), st.lists(letters, min_size=1, max_size=4))
@settings(max_examples=50)
def test_free_codec_mul_right_word(ws, ls):
    c = codec_for(F2)
    y = reduce(F2.mul, [(l,) for l in ls], F2.identity)
    codes = np.array([c.encode_one(w) for w in ws], dtype=np.uint64)
    out, ok = c.mul(codes, _one(c, y))
    for w, o, fits in zip(ws, out, ok):
        if fits:
            assert c.decode_one(int(o)) == F2.mul(w, y)


F2_MAX_LEN = codec_for(F2).max_len


@given(st.lists(reduced_words(F2_MAX_LEN), min_size=1, max_size=20), letters)
@settings(max_examples=80)
def test_free_codec_mul_left_letter_matches_group(ws, l):
    # for F2, encoding fails exactly when the word is longer than max_len
    _check_mul(F2, ws, (l,))


@given(st.lists(reduced_words(F2_MAX_LEN), min_size=1, max_size=10), reduced_words(6))
@settings(max_examples=80)
def test_free_codec_mul_left_word_matches_group(ws, t):
    _check_mul(F2, ws, t)


def test_free_codec_mul_left_at_max_len():
    # a word of max_len letters stays in range exactly when the product does
    c = codec_for(F2)
    full = tuple([-1, 2] * (c.max_len // 2))  # top letter a^-1
    assert len(full) == c.max_len
    code = np.array([c.encode_one(full)], dtype=np.uint64)
    for t, fits in (
        ((1,), True),  # a cancels the top letter
        ((1, -2, 1), True),  # three cancellations
        ((2, 1), True),  # one cancellation, one new letter: max_len again
        ((2,), False),  # max_len + 1 letters
        ((-1,), False),
    ):
        want = F2.mul(t, full)
        out, ok = c.mul(_one(c, t), code)
        assert bool(ok[0]) == fits == (len(want) <= c.max_len)
        if fits:
            assert c.decode_one(int(out[0])) == want


@given(st.tuples(st.integers(-30000, 30000)))
def test_abelian_codec_round_trip(x):
    c = codec_for(FreeAbelian(1))
    code = c.encode_one(x)
    assert c.decode_one(code) == x


@given(st.integers(0, 6), st.integers(0, 6))
def test_cyclic_codec_mul(x, y):
    g = CyclicGroup(7)
    c = codec_for(g)
    codes = np.array([c.encode_one(x)], dtype=np.uint64)
    out, ok = c.mul(codes, _one(c, y))
    assert bool(ok[0])
    assert c.decode_one(int(out[0])) == g.mul(x, y)


@given(
    st.lists(st.lists(letters, max_size=6), min_size=1, max_size=12),
    st.integers(-40, 40),
)
@settings(max_examples=60)
def test_product_codec_mul_right(raw_ws, k):
    g = F2xZ
    c = codec_for(g)
    xs = [
        (reduce(F2.mul, [(l,) for l in w], F2.identity), (i - 3,))
        for i, w in enumerate(raw_ws)
    ]
    codes = np.array([c.encode_one(x) for x in xs], dtype=np.uint64)
    y = ((1,), (k,))
    out, ok = c.mul(codes, _one(c, y))
    for x, o, fits in zip(xs, out, ok):
        if fits:
            assert c.decode_one(int(o)) == g.mul(x, y)


F2xZ_FREE_MAX_LEN = codec_for(F2xZ)._subs[0].max_len
F2xC5 = DirectProduct((FreeGroup(2), CyclicGroup(5)))


@given(
    st.lists(
        st.tuples(reduced_words(F2xZ_FREE_MAX_LEN), st.tuples(st.sampled_from([-32768, -1, 0, 5, 32767]))),
        min_size=1,
        max_size=12,
    ),
    st.tuples(reduced_words(4), st.tuples(st.integers(-3, 3))),
)
@settings(max_examples=60)
def test_product_codec_mul_left_matches_group(xs, t):
    _check_mul(F2xZ, xs, t)


@given(
    st.lists(st.tuples(reduced_words(codec_for(F2xC5)._subs[0].max_len), st.integers(0, 4)), min_size=1, max_size=12),
    st.tuples(reduced_words(4), st.integers(0, 4)),
)
@settings(max_examples=60)
def test_product_codec_with_cyclic_factor_mul_left_matches_group(xs, t):
    _check_mul(F2xC5, xs, t)


def test_product_codec_overflow_is_flagged_not_wrong():
    g = F2xZ
    c = codec_for(g)
    deep = (tuple([1, 2] * 10), (0,))  # 20 letters: at the packing limit
    code = c.encode_one(deep)
    assert code is not None
    out, ok = c.mul(np.array([code], dtype=np.uint64), _one(c, ((1,), (0,))))
    assert not bool(ok[0])  # would be 21 letters, must spill
    _check_codes_mul(g, [deep], [((1,), (0,))])


@pytest.mark.parametrize("v", [2**62, -(2**62), 2**63, -(2**63) - 1, 2**64])
def test_abelian_codec_flags_a_coordinate_past_its_field(v):
    # a coordinate as large as the field does not encode, and one past int64
    # must not raise: the products with it, on either side, go to the side dict
    for g, x, y in (
        (FreeAbelian(1), (3,), (v,)),
        (FreeAbelian(2), (1, 2), (0, v)),
        (F2xZ, ((1,), (3,)), ((2,), (v,))),
    ):
        assert codec_for(g).encode_one(y) is None
        mu, nu = delta(g, x), delta(g, y)
        for a, b, z in ((mu, nu, g.mul(x, y)), (nu, mu, g.mul(y, x))):
            assert convolve(a, b)._side == convolve_reference(a, b).as_dict() == {z: 1.0}
        assert tv_left_translate(mu, y) == (2.0, 0.0)


def test_abelian_codec_keeps_the_largest_shift_that_fits():
    # the field's lowest value moved by 2^62 - 1 is its highest: y does not
    # encode, yet the product lands back in the pool
    g = FreeAbelian(1)
    x, y = (-(2**61),), (2**62 - 1,)
    assert codec_for(g).encode_one(y) is None
    for mode in ("float", "exact"):
        mu, nu = delta(g, x, mode=mode), delta(g, y, mode=mode)
        got = convolve(mu, nu)
        assert got.as_dict() == convolve_reference(mu, nu).as_dict() == {(2**61 - 1,): 1}
        assert not got._side and len(got._codes) == 1


LAMP = Lamplighter()


def _lamps(values, max_size):
    return st.lists(values, unique=True, max_size=max_size).map(lambda ls: tuple(sorted(ls)))


# lamps and markers near the edges of the codec's window: lamps in [-23, 23],
# the marker in [-32768, 32767]
edge_markers = st.sampled_from([-32768, -32767, -40, 40, 32766, 32767])
window_lamps = st.one_of(st.integers(-23, 23), st.sampled_from([-23, -22, 22, 23]))
lamp_rows = st.tuples(_lamps(window_lamps, 6), st.one_of(st.integers(-30, 30), edge_markers))


@given(
    st.tuples(
        _lamps(st.integers(-25, 25), 8),
        st.one_of(st.integers(-5, 5), edge_markers, st.sampled_from([-32769, 32768])),
    )
)
def test_lamplighter_codec_round_trip(x):
    c = codec_for(LAMP)
    code = c.encode_one(x)
    lamps, pos = x
    fits = all(-23 <= p <= 23 for p in lamps) and -32768 <= pos <= 32767
    assert (code is not None) == fits
    if fits:
        assert 0 <= code < 1 << 63
        assert c.decode_one(code) == x


@pytest.mark.parametrize(
    "x",
    [
        ((-23,), 0),
        ((23,), 0),
        ((-23, 23), 1),
        ((), 0),
        ((), -32768),
        ((), 32767),
        (tuple(range(-23, 24)), 0),
        (tuple(range(-23, 24)), -32768),
        (tuple(range(-23, 24)), 32767),
        ((-23, 0, 23), -32768),
    ],
    ids=["lamp-23", "lamp+23", "both-ends", "no-lamps", "marker-min", "marker-max",
         "all-47", "all-47-marker-min", "all-47-marker-max", "ends-marker-min"],
)
def test_lamplighter_decode_one_walks_every_lit_bit(x):
    # decode_one reads only the lit bits, lowest first: the window's two edges,
    # a full window and an empty one, and the marker at both ends of its field
    c = codec_for(LAMP)
    code = c.encode_one(x)
    assert code is not None and 0 <= code < 1 << 63
    assert c.decode_one(code) == x


@given(st.lists(lamp_rows, min_size=1, max_size=12), lamp_rows)
@settings(max_examples=120)
def test_lamplighter_codec_mul_right_matches_group(xs, y):
    _check_mul(LAMP, xs, y, left=False)


@given(st.lists(lamp_rows, min_size=1, max_size=12), lamp_rows)
@settings(max_examples=120)
def test_lamplighter_codec_mul_left_matches_group(xs, t):
    _check_mul(LAMP, xs, t)


@pytest.mark.parametrize("left", [True, False], ids=["mul_left", "mul_right"])
def test_lamplighter_codec_window_edges(left):
    # each case is one row and one factor; `ok` must hold exactly when the
    # product encodes. Factors that do not encode are in test_measures'
    # LAMP_FAR, where the callers move every row by the group law.
    cases = [
        (((23,), 0), ((), 1)),  # lamp 23 moves to 24 on the left
        (((-23, 23), 0), ((), 47)),
        (((), 32767), ((), 1)),  # the marker's 16-bit edge
        (((), 32767), ((), 0)),
        (((), -32768), ((), -1)),
    ]
    for x, t in cases:
        _check_mul(LAMP, [x], t, left=left)


# rank 7 leaves under 10 bits a coordinate; the product codec packs no lamplighter
CODECLESS = (FreeAbelian(7), DirectProduct((Lamplighter(), FreeAbelian(1))))


def test_codec_less_groups_have_no_codec():
    for g in CODECLESS:
        assert codec_for(g) is None


def test_group_builds_its_codec_once():
    assert F2xZ.codec() is F2xZ.codec()
    assert LAMP.codec() is LAMP.codec() is not None
    for g in CODECLESS:
        assert g.codec() is None and g.codec() is None


def test_codec_for_infeasible_product():
    # two free factors cannot share one 64-bit word at useful depth
    g = DirectProduct((FreeGroup(2), FreeGroup(2)))
    assert codec_for(g) is None


def test_line_bits_is_the_width_of_a_lowest_integer_field():
    assert codec_for(F2xZ).line_bits == 16
    assert codec_for(FreeAbelian(1)).line_bits == 62
    assert codec_for(F2).line_bits is None
    assert codec_for(CyclicGroup(5)).line_bits is None
    assert codec_for(DirectProduct((FreeAbelian(1), FreeGroup(2)))).line_bits is None


def _check_codes_mul(g, xs, ys):
    """codec.mul against g.mul(x, y) on the shapes (n,) x (n,) and
    (1, n) x (m, 1): `ok` is false exactly where the product does not
    encode, and elsewhere the code is the product's code."""
    c = codec_for(g)
    cx = np.array([c.encode_one(x) for x in xs], dtype=np.uint64)
    cy = np.array([c.encode_one(y) for y in ys], dtype=np.uint64)
    n = min(len(xs), len(ys))
    rows = c.mul(cx[:n], cy[:n])
    table = c.mul(cx[None, :], cy[:, None])
    assert rows[0].shape == rows[1].shape == (n,)
    assert table[0].shape == table[1].shape == (len(ys), len(xs))
    pairs = [(x, y, rows, (i,)) for i, (x, y) in enumerate(zip(xs, ys))]
    pairs += [(x, y, table, (j, i)) for j, y in enumerate(ys) for i, x in enumerate(xs)]
    for x, y, (out, ok), at in pairs:
        want = c.encode_one(g.mul(x, y))
        assert bool(ok[at]) == (want is not None), (x, y)
        if want is not None:
            assert int(out[at]) == want, (x, y)


Z2 = FreeAbelian(2)


def _coords(bias):
    # the field holds [-bias, bias - 1]
    return st.one_of(st.integers(-5, 5), st.sampled_from([-bias, -bias + 1, bias - 2, bias - 1]))


# encodable elements of each codec's group, many at the edges of its fields:
# free words at max_len, lamps at +-23, markers and coordinates at the ends
# of their fields
CODE_ELEMENTS = {
    "free(2)": (F2, reduced_words(F2_MAX_LEN)),
    "free-abelian(1)": (FreeAbelian(1), st.tuples(_coords(2**61))),
    "free-abelian(2)": (Z2, st.tuples(_coords(2**30), _coords(2**30))),
    "cyclic(7)": (CyclicGroup(7), st.integers(0, 6)),
    "lamplighter(2)": (LAMP, lamp_rows),
    "F2xZ": (F2xZ, st.tuples(reduced_words(F2xZ_FREE_MAX_LEN), st.tuples(_coords(2**15)))),
    "F2xC5": (F2xC5, st.tuples(reduced_words(codec_for(F2xC5)._subs[0].max_len), st.integers(0, 4))),
}


@pytest.mark.parametrize("name", list(CODE_ELEMENTS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mul_matches_group_law(name, data):
    g, els = CODE_ELEMENTS[name]
    xs = data.draw(st.lists(els, min_size=1, max_size=6))
    ys = data.draw(st.lists(els, min_size=1, max_size=5))
    _check_codes_mul(g, xs, ys)


def test_mul_at_the_edges():
    c = codec_for(F2)
    full = tuple([-1, 2] * (c.max_len // 2))  # max_len letters, last b
    cases = [
        (F2, [full], [(-2,), (1,), (-2, 1), (-2, 1, 2)]),  # cancel one, add one, cancel two, ...
        (F2, [(), (1,)], [full]),
        (LAMP, [((23,), 0), ((-23,), 0), ((), 1), ((), -1)], [((23,), 0), ((-23,), 0), ((), 0)]),
        (LAMP, [((), 32767), ((), -32768)], [((), 1), ((), -1), ((), 0)]),
        (LAMP, [((-23, 23), 46), ((-23, 23), -46), ((0,), 47)], [((-23,), 0), ((23,), 0), ((), 0)]),
        (FreeAbelian(1), [(2**61 - 1,), (-(2**61),)], [(1,), (-1,), (0,), (2**61 - 1,), (-(2**61),)]),
        (F2xZ, [((), (32767,)), (full[:20], (-32768,))], [((1,), (1,)), ((2,), (-1,)), ((), (0,))]),
    ]
    for g, xs, ys in cases:
        _check_codes_mul(g, xs, ys)



# a word with a letter in each group's free field, and the empty word there
WORD_A = {"free(2)": (1,), "F2xZ": ((1,), (0,)), "F2xC5": ((1,), 0)}
EMPTY_WORDS = {
    "free(2)": st.just(()),
    "F2xZ": st.tuples(st.just(()), st.tuples(_coords(2**15))),
    "F2xC5": st.tuples(st.just(()), st.integers(0, 4)),
}


def _general_mul(c, a, xs, ys):
    """c.mul(xs, ys) on its general path: each operand is stacked over a
    layer of a's code, so neither side is all empty words, and the product's
    first layer is taken."""
    shape = np.broadcast_shapes(xs.shape, ys.shape)
    fill = np.full(shape, c.encode_one(a), dtype=np.uint64)
    out, ok = c.mul(np.stack([np.broadcast_to(xs, shape), fill]), np.stack([np.broadcast_to(ys, shape), fill]))
    return out[0], ok[0]


@pytest.mark.parametrize("name", list(WORD_A))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_free_mul_by_empty_words_equals_the_general_path(name, data):
    # every x (or every y) the empty word: `mul` returns the other operand,
    # broadcast into a fresh array, with the same `ok` as the general path
    g, els = CODE_ELEMENTS[name]
    c = codec_for(g)
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    empty, codes = (
        np.array([c.encode_one(x) for x in data.draw(st.lists(s, min_size=k, max_size=k))], dtype=np.uint64)
        for s, k in ((EMPTY_WORDS[name], m), (els, n))
    )
    shapes = [(empty[:1], codes), (codes, empty[:1])]  # (1, n) and (n, 1)
    shapes += [(empty[:, None], codes[None, :]), (codes[:, None], empty[None, :])]  # (m, n) and (n, m)
    for xs, ys in shapes:
        out, ok = c.mul(xs, ys)
        want, want_ok = _general_mul(c, WORD_A[name], xs, ys)
        assert out.shape == want.shape and np.array_equal(out, want) and np.array_equal(ok, want_ok)
        assert out.flags.writeable and not np.shares_memory(out, xs) and not np.shares_memory(out, ys)
