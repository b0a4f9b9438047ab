import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from groupwalk.detrng import (
    _BLOCK, _GAMMA, _MASK, CounterRng, _mix64_np, _uniforms, _word_cuts, _word_uniforms, derive, mix64,
)
from groupwalk.mcstats import CHI2_CRIT_01, chi2_independence, wilson_interval


@given(st.integers(0, 2**64 - 1))
def test_mix64_is_a_bijection_locally(x):
    # distinct nearby inputs never collide (sanity, not a proof of bijectivity)
    assert mix64(x) != mix64((x + 1) % 2**64)


def test_mix64_np_matches_scalar():
    words = np.random.default_rng(0).integers(0, 2**64, size=1_000, dtype=np.uint64, endpoint=False)
    edges = np.array([0, 2**64 - 1, 2**64 - _GAMMA], dtype=np.uint64)
    x = np.concatenate([words, edges])
    before = x.copy()
    assert [int(v) for v in _mix64_np(x)] == [mix64(int(v)) for v in x]
    assert np.array_equal(x, before)  # the input is not mixed in place


def _words(n):
    return np.random.default_rng(n).integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False)


def _grid():
    # three rows of B/2 + 5 words: blocks end mid-row
    return _words(3 * (_BLOCK // 2 + 5)).reshape(3, -1)


_LENGTHS = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)
_INPUTS = {
    **{f"len-{n}": (lambda n=n: _words(n)) for n in _LENGTHS},
    "grid": _grid,
    "transpose": lambda: _grid().T,  # F-ordered: its flat reshape is a copy, not a view
    "strided": lambda: _grid()[:, ::3],
}


@pytest.mark.parametrize("make", _INPUTS.values(), ids=_INPUTS.keys())
def test_mix64_np_is_scalar_mix64_across_block_boundaries(make):
    x = make()
    before = x.copy()
    out = _mix64_np(x)
    assert out.shape == x.shape and out.dtype == np.uint64
    want = [mix64(int(v)) for v in x.ravel()]
    assert [int(v) for v in out.ravel()] == want
    u = _uniforms(x)  # converted over the mixed words, block by block
    assert u.shape == x.shape and u.dtype == np.float64
    assert u.ravel().tolist() == [(w >> 11) * 2.0**-53 for w in want]
    assert np.array_equal(x, before)


_C_ORDERED = {k: v for k, v in _INPUTS.items() if v().flags.c_contiguous}


@pytest.mark.parametrize("make", _C_ORDERED.values(), ids=_C_ORDERED.keys())
def test_mix64_np_mixes_in_place_across_block_boundaries(make):
    x = make()
    want = [mix64(int(v)) for v in x.ravel()]
    into = np.empty_like(x)
    assert _mix64_np(x, out=into) is into
    assert [int(v) for v in into.ravel()] == want
    assert _mix64_np(x, out=x) is x
    assert [int(v) for v in x.ravel()] == want


@pytest.mark.parametrize("m", [1, 2, 1 << 52, (1 << 53) - 1, 1 << 53])
def test_a_word_passes_its_cut_exactly_when_its_uniform_passes_m(m):
    # the words on either side of the cut, and the ends of the range; at
    # m = 2^53 the cut wraps to 2^64 - 1 and no word passes it
    words = [0, (m << 11) - 1, m << 11, (m << 11) + 2047, _MASK]
    w = np.array([x & _MASK for x in words], dtype=np.uint64)
    cut = _word_cuts(np.array([m], dtype=np.int64))
    want = [(int(x) >> 11) * 2.0**-53 >= m * 2.0**-53 for x in w]
    assert (w > cut).tolist() == want
    assert _word_uniforms(w).tolist() == [(int(x) >> 11) * 2.0**-53 for x in w]


def test_derive_is_order_sensitive():
    assert derive(1, "a", "b") != derive(1, "b", "a")
    assert derive(1, "a", 2) != derive(2, "a", 1)


def test_counter_rng_random_access_matches_stream():
    rng = CounterRng(123, "lbl")
    seq = rng.uniforms_at(np.arange(50, dtype=np.uint64))
    assert [rng.uniform_at(i) for i in range(50)] == list(seq)
    # offset windows agree with the full stream
    window = rng.uniforms_at(np.arange(10, 30, dtype=np.uint64))
    assert list(window) == list(seq[10:30])
    assert [rng.uniform_at(i) for i in range(10, 30)] == list(window)


def test_counter_rng_uniform_range():
    rng = CounterRng(7)
    u = rng.uniforms_at(np.arange(10_000, dtype=np.uint64))
    assert np.all(u >= 0) and np.all(u < 1)
    assert abs(float(np.mean(u)) - 0.5) < 0.02


@given(st.integers(0, 1000), st.integers(1, 1000))
def test_wilson_interval_bounds(s, n):
    if s > n:
        s = n
    lo, hi = wilson_interval(s, n)
    assert 0.0 <= lo <= s / n <= hi <= 1.0


def test_wilson_agrees_with_known_value():
    # 500/1000 at z = 1.96: (0.4690, 0.5310) to 4 digits
    lo, hi = wilson_interval(500, 1000)
    assert abs(lo - 0.46907) < 5e-4
    assert abs(hi - 0.53093) < 5e-4


def test_chi2_on_independent_table():
    # perfectly proportional table has statistic 0
    table = [[10, 20, 30], [20, 40, 60]]
    stat, df = chi2_independence(table)
    assert stat == 0 and df == 2
    assert CHI2_CRIT_01[2] > 9.2
