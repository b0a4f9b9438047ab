import numpy as np
from hypothesis import given
import hypothesis.strategies as st

from groupwalk.detrng import _GAMMA, CounterRng, _mix64_np, derive, mix64
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
