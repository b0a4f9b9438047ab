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

F2 = FreeGroup(2)
F2xZ = DirectProduct((FreeGroup(2), FreeAbelian(1)))

letters = st.integers(-2, 2).filter(lambda l: l != 0)
words = st.lists(letters, max_size=16).map(
    lambda ls: reduce(F2.mul, [(l,) for l in ls], F2.identity)
)


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
    out, ok = c.mul_right(codes, (l,))
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
    out, ok = c.mul_right(codes, y)
    for w, o, fits in zip(ws, out, ok):
        if fits:
            assert c.decode_one(int(o)) == F2.mul(w, y)


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
    out, ok = c.mul_right(codes, y)
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
    out, ok = c.mul_right(codes, y)
    for x, o, fits in zip(xs, out, ok):
        if fits:
            assert c.decode_one(int(o)) == g.mul(x, y)


def test_product_codec_overflow_is_flagged_not_wrong():
    g = F2xZ
    c = codec_for(g)
    deep = (tuple([1, 2] * 10), (0,))  # 20 letters: at the packing limit
    code = c.encode_one(deep)
    assert code is not None
    out, ok = c.mul_right(np.array([code], dtype=np.uint64), ((1,), (0,)))
    assert not bool(ok[0])  # would be 21 letters, must spill


def test_lamplighter_has_no_codec():
    assert codec_for(Lamplighter()) is None


def test_group_builds_its_codec_once():
    assert F2xZ.codec() is F2xZ.codec()
    lamp = Lamplighter()
    assert lamp.codec() is None and lamp.codec() is None


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
