import json

import numpy as np
import pytest

from groupwalk import (
    GSet,
    SpecMismatchError,
    WalkModel,
    empirical_increment_law,
    estimate_M,
    tv_distance,
)
from groupwalk import walk
from groupwalk.detrng import CounterRng
from groupwalk.walk import (
    DecompositionReport,
    _sample_atom_ids,
    coupling_independence,
    empirical_pair_law,
)


@pytest.fixture(scope="module")
def model(f2xz_state):
    return WalkModel(f2xz_state)


def _draw(model, seed, samples, batch=1 << 18, label="increments"):
    """Concatenated (ids, total rejections, colors) of one sampler run."""
    parts = list(_sample_atom_ids(model, seed, label, samples, batch=batch))
    ids = np.concatenate([p[0] for p in parts])
    colors = np.concatenate([p[2] for p in parts])
    return ids, sum(p[1] for p in parts), colors


def _stages(model, ids):
    # atom_offset[i] starts stage i's block for i >= 1 (atom_offset[0] is a pad)
    return np.searchsorted(np.array(model.atom_offset), ids, side="right") - 1


def test_atom_ids_are_deterministic_across_batches(model):
    ids, rej, colors = _draw(model, 42, 5_000)
    ids_b, rej_b, colors_b = _draw(model, 42, 5_000, batch=777)
    assert np.array_equal(ids, ids_b) and np.array_equal(colors, colors_b)
    assert rej == rej_b
    other, _, _ = _draw(model, 43, 5_000)
    assert not np.array_equal(ids, other)


def test_colors_pick_the_right_atom(model):
    ids, _, colors = _draw(model, 9, 20_000)
    K = _stages(model, ids)
    assert K.min() >= 1 and K.max() <= model.k
    slot = ids - np.array(model.atom_offset)[K]
    assert np.all(slot[colors == 0] >= 2)
    assert np.all(slot[colors == 1] == 0)
    assert np.all(slot[colors == 2] == 1)
    g = model.group
    for i, k, col in zip(ids[:300].tolist(), K[:300].tolist(), colors[:300].tolist()):
        record = model.state.records[k - 1]
        if col == 0:
            assert model.atoms[i] in record.F.elements
        else:
            assert model.atoms[i] == (record.c if col == 1 else g.inv(record.c))


def test_overflow_fallback_reads_its_own_stream(model, monkeypatch):
    # with one K attempt per slot block, every sample whose first draw
    # exceeds k is redrawn from (seed, label + "-overflow", s) at 0, 1, ...
    monkeypatch.setattr(walk, "_MAX_K_ATTEMPTS", 1)
    seed, label, samples = 4, "increments", 3_000
    ids, rej, _ = _draw(model, seed, samples, batch=1_000, label=label)
    K = _stages(model, ids)
    rng = CounterRng(seed, label)
    alpha = model.alpha
    overflowed, want_rej = 0, 0
    for s in range(samples):
        if alpha.sample_k(rng.uniform_at(walk._STRIDE * s)) <= model.k:
            continue
        overflowed += 1
        aux = CounterRng(seed, label + "-overflow", s)
        j = 0
        while alpha.sample_k(aux.uniform_at(j)) > model.k:
            j += 1
        assert K[s] == alpha.sample_k(aux.uniform_at(j))
        want_rej += j + 1  # the rejected in-stride draw, then j overflow draws
    assert overflowed > 0
    assert rej == want_rej


def test_empirical_law_supported_on_measure(model, f2xz_nu):
    emp, stats = empirical_increment_law(model, 20_000, seed=5)
    support = set(f2xz_nu.as_dict())
    assert set(emp.as_dict()) <= support
    assert stats["samples"] == 20_000
    assert emp.total_mass() == pytest.approx(1.0)


def test_empirical_law_converges(model, f2xz_nu):
    emp, stats = empirical_increment_law(model, 200_000, seed=5)
    v, _ = tv_distance(emp, f2xz_nu)
    deficit = 1.0 - float(f2xz_nu.total_mass())
    assert v < 0.05 + deficit
    for color in ("blue", "red", "green"):
        lo, hi = stats["colors"][color]["wilson95"]
        assert lo <= 1 / 3 <= hi or abs(stats["colors"][color]["fraction"] - 1 / 3) < 0.01


def test_empirical_law_seed_sensitivity(model):
    e1, _ = empirical_increment_law(model, 5_000, seed=5)
    e2, _ = empirical_increment_law(model, 5_000, seed=5)
    e3, _ = empirical_increment_law(model, 5_000, seed=6)
    assert e1.to_text() == e2.to_text()
    assert e1.to_text() != e3.to_text()


def test_coupling_independence(model):
    res = coupling_independence(model, 100_000, seed=21)
    assert res["independent"]
    assert res["chi2"] < res["critical_0.01"]
    assert res["df"] == 12


def test_pair_law_against_true_square(model, f2xz_nu):
    from groupwalk import convolve

    emp = empirical_pair_law(model, 150_000, seed=13)
    true_sq = convolve(f2xz_nu, f2xz_nu)
    v, br = tv_distance(emp, true_sq)
    # deficit of nu*nu plus sampling noise at this sample size
    deficit = 1.0 - float(true_sq.total_mass())
    assert v < 0.05 + deficit


def test_estimate_m_basic(f2xz_state):
    S = GSet(f2xz_state.group, frozenset([((), (1,))]))
    rep = estimate_M(
        f2xz_state, S, N=4, eps=0.25, trials=1500, horizon=4096, seed=77
    )
    assert not rep.failed
    assert rep.M is not None and 4 < rep.M <= 4096
    assert rep.ci[0] >= 0.75
    # the curve is non-decreasing in the horizon cut
    values = [row[1] for row in rep.curve]
    assert values == sorted(values)
    # round trip through json
    doc = json.loads(rep.to_json())
    assert doc["M"] == rep.M
    assert doc["ci_method"] == "wilson-95"


def test_estimate_m_fails_honestly_on_tiny_horizon(f2xz_state):
    S = GSet(f2xz_state.group, frozenset([((), (1,))]))
    rep = estimate_M(
        f2xz_state, S, N=4, eps=0.05, trials=400, horizon=32, seed=77
    )
    # 95% hit probability is unreachable by step 32; the flag must say so
    assert rep.failed
    assert rep.M is None


def test_estimate_m_vacuous_eps(f2xz_state):
    S = GSet(f2xz_state.group, frozenset([((), (1,))]))
    rep = estimate_M(f2xz_state, S, N=4, eps=1.0, trials=10, horizon=16, seed=1)
    assert rep.M == 0 and not rep.failed


def test_estimate_m_rejects_unknown_s(f2xz_state):
    S = GSet(f2xz_state.group, frozenset([((1,), (0,))]))
    with pytest.raises(SpecMismatchError):
        estimate_M(f2xz_state, S, N=4, eps=0.25, trials=10, horizon=16, seed=1)


def test_estimate_m_deterministic(f2xz_state):
    S = GSet(f2xz_state.group, frozenset([((), (1,))]))
    a = estimate_M(f2xz_state, S, N=4, eps=0.3, trials=600, horizon=2048, seed=3)
    b = estimate_M(f2xz_state, S, N=4, eps=0.3, trials=600, horizon=2048, seed=3)
    assert a.to_json() == b.to_json()
