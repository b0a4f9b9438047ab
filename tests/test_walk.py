import hashlib
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
from groupwalk.config import RunConfig
from groupwalk.construction import AlphaSchedule, catalogue_from_texts, new_state
from groupwalk.detrng import CounterRng
from groupwalk.mcstats import wilson_interval
from groupwalk.presets import fresh_state
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
    """Concatenated (ids, colors) of one sampler run."""
    parts = list(_sample_atom_ids(model, seed, label, samples, batch=batch))
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _stages(model, ids):
    # atom_offset[i] starts stage i's block for i >= 1 (atom_offset[0] is a pad)
    return np.searchsorted(np.array(model.atom_offset), ids, side="right") - 1


def test_atom_ids_are_deterministic_across_batches(model):
    ids, colors = _draw(model, 42, 5_000)
    ids_b, colors_b = _draw(model, 42, 5_000, batch=777)
    assert np.array_equal(ids, ids_b) and np.array_equal(colors, colors_b)
    other, _ = _draw(model, 43, 5_000)
    assert not np.array_equal(ids, other)


def test_colors_pick_the_right_atom(model):
    ids, colors = _draw(model, 9, 20_000)
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


def _model(alpha, k):
    cfg = RunConfig(preset="f2xz", seed=20260813, stages=k, alpha=alpha).resolved()
    return WalkModel(fresh_state(cfg))


def test_stage_is_the_truncated_quantile_of_slot_3s(model, monkeypatch):
    seed, samples = 17, 5_000
    read = []
    uniforms_at = CounterRng.uniforms_at

    def counted(self, counters):
        read.extend(counters.tolist())
        return uniforms_at(self, counters)

    monkeypatch.setattr(CounterRng, "uniforms_at", counted)
    ids, colors = _draw(model, seed, samples, batch=777)
    monkeypatch.undo()
    # three uniforms a sample, each slot read once
    assert sorted(read) == list(range(3 * samples))
    u = CounterRng(seed, "increments").uniforms_at(np.arange(3 * samples, dtype=np.uint64))
    p = float(model.alpha.partial_sum(model.k))
    want = [min(model.alpha.sample_k(x * p), model.k) for x in u[0::3].tolist()]
    assert _stages(model, ids).tolist() == want
    assert colors.tolist() == np.minimum((u[1::3] * 3).astype(np.int64), 2).tolist()


@pytest.mark.parametrize("alpha", ["harmonic", "geometric"])
def test_stage_frequencies_follow_the_truncated_law(alpha):
    # P(K = i | K <= k) = alpha(i) / partial_sum(k); z = 4 makes each
    # interval miss a correct sampler about once in 16,000 cells
    m = _model(alpha, 3)
    samples = 60_000
    ids, _ = _draw(m, 8, samples)
    counts = np.bincount(_stages(m, ids), minlength=4)[1:]
    for i, c in enumerate(counts.tolist(), 1):
        lo, hi = wilson_interval(c, samples, z=4.0)
        assert lo <= float(m.alpha.alpha(i) / m.alpha.partial_sum(3)) <= hi, (i, c)


@pytest.mark.parametrize("top", [1.0 - 2.0**-53, 1.0])
@pytest.mark.parametrize("k", [1, 2, 32])
def test_largest_uniform_draws_the_last_stage(k, top, monkeypatch):
    # the largest uniform lands in stage k. u = 1.0 never comes out of the
    # stream, but it puts u * p at p itself, where 1/(1 - p) passes k + 1
    # at k = 32 and the clip alone keeps K at k
    m = _model("harmonic", k)
    monkeypatch.setattr(CounterRng, "uniforms_at", lambda self, c: np.full(len(c), top))
    ids, _ = _draw(m, 1, 1_000)
    assert set(_stages(m, ids).tolist()) == {k}


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
    doc = rep.to_dict()
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


def test_estimate_m_bytes_are_pinned(f2xz_state):
    # 2,000 trials make tiles of ~8 mixer blocks, and 5,000 steps two
    # threshold spans; neither may change a byte
    S = GSet(f2xz_state.group, frozenset([((), (1,))]))
    rep = estimate_M(f2xz_state, S, N=4, eps=0.25, trials=2000, horizon=5000, seed=77)
    doc = json.dumps(rep.to_dict(), sort_keys=True)
    assert rep.M == 3666
    assert (
        hashlib.sha256(doc.encode()).hexdigest()
        == "52d80de742b5d08739efc3c8da14ee90dcd0a4f6bedca35387bd36bbef6665a1"
    )


def test_increment_law_bytes_are_pinned(model):
    # 100,000 samples: four batches, the last one partial
    emp, stats = empirical_increment_law(model, 100_000, seed=9)
    doc = json.dumps({"atoms": emp.to_text(), "stats": stats}, sort_keys=True)
    assert (
        hashlib.sha256(doc.encode()).hexdigest()
        == "e04b51a5f41115549e65643ee87017ab7713d279ab7549cf22ab875a28f4bd4f"
    )


def test_pair_law_bytes_do_not_depend_on_batching(model, monkeypatch):
    whole = empirical_pair_law(model, 20_000, seed=4).to_text()
    sample = walk._sample_atom_ids
    monkeypatch.setattr(walk, "_sample_atom_ids", lambda *args: sample(*args, batch=777))
    assert empirical_pair_law(model, 20_000, seed=4).to_text() == whole


@pytest.mark.parametrize(
    "sampler", [empirical_increment_law, empirical_pair_law, coupling_independence]
)
def test_samplers_refuse_zero_samples(model, sampler):
    with pytest.raises(SpecMismatchError, match="samples must be >= 1"):
        sampler(model, 0, seed=1)


def test_estimate_m_deterministic(f2xz_state):
    S = GSet(f2xz_state.group, frozenset([((), (1,))]))
    a = estimate_M(f2xz_state, S, N=4, eps=0.3, trials=600, horizon=2048, seed=3)
    b = estimate_M(f2xz_state, S, N=4, eps=0.3, trials=600, horizon=2048, seed=3)
    assert a.to_dict() == b.to_dict()


@pytest.fixture(scope="module", params=["harmonic", "geometric"])
def three_entry_state(f2xz_state, request):
    # three central singletons, so the schedule at stage K picks S only a
    # third of the time and the schedule filter decides hits
    g = f2xz_state.group
    texts = ((("(e|(1))",), "center"), (("(e|(2))",), "center"), (("(e|(-1))",), "center"))
    return new_state(g, catalogue_from_texts(g, texts, 3), AlphaSchedule(request.param))


def _oracle_hit_times(state, S, N, trials, horizon, seed):
    """Trial by trial and step by step, the first step the event fires (horizon + 1 if none)."""
    cat, alpha = state.catalogue, state.alpha
    match = {j for j, e in enumerate(cat.entries) if e.S.elements == S.elements}
    hits = []
    for t in range(trials):
        rng = CounterRng(seed, "couple", t)
        best, hit = 0, horizon + 1
        for l in range(1, horizon + 1):
            k = alpha.sample_k(rng.uniform_at(2 * l))
            if (
                l > N
                and k > l + 1
                and k > best
                and rng.uniform_at(2 * l + 1) < 1 / 3
                and cat.draw_index(k) in match
            ):
                hit = l
                break
            best = max(best, k)
        hits.append(hit)
    return hits


def _report_from_hits(hits, trials, horizon, eps):
    """(M, curve, hit_probability, ci) as the report defines them, from hit times."""
    order = sorted(h for h in hits if h <= horizon)
    M = next(
        (h for pos, h in enumerate(order, 1) if wilson_interval(pos, trials)[0] >= 1 - eps),
        None,
    )
    grid = [2**i for i in range(horizon.bit_length()) if 2**i < horizon] + [horizon]
    curve = []
    for m in grid:
        c = sum(h <= m for h in hits)
        curve.append((m, c / trials, *wilson_interval(c, trials)))
    c = sum(h <= (horizon if M is None else M) for h in hits)
    return M, tuple(curve), c / trials, wilson_interval(c, trials)


@pytest.mark.parametrize("N", [0, 7])
@pytest.mark.parametrize("horizon", [1, 300])
def test_estimate_m_matches_scalar_oracle(three_entry_state, N, horizon):
    g = three_entry_state.group
    S = GSet(g, frozenset([g.element_from_text("(e|(1))")]))
    trials, eps, seed = 200, 0.8, 11
    rep = estimate_M(three_entry_state, S, N=N, eps=eps, trials=trials, horizon=horizon, seed=seed)
    hits = _oracle_hit_times(three_entry_state, S, N, trials, horizon, seed)
    assert (rep.M, rep.curve, rep.hit_probability, rep.ci) == _report_from_hits(
        hits, trials, horizon, eps
    )


def test_estimate_m_does_not_depend_on_tiling(three_entry_state, monkeypatch):
    # 7 cells a tile splits the 40 trials into blocks and the 150 steps
    # into many tiles, so tiles end mid-trial and blocks end mid-run; spans
    # of 5 steps then cut tiles short, and each block bisects them again
    g = three_entry_state.group
    S = GSet(g, frozenset([g.element_from_text("(e|(1))")]))
    args = dict(N=2, eps=0.8, trials=40, horizon=150, seed=5)
    default = estimate_M(three_entry_state, S, **args).to_dict()
    monkeypatch.setattr(walk, "_TILE_CELLS", 7)
    assert estimate_M(three_entry_state, S, **args).to_dict() == default
    monkeypatch.setattr(walk, "_STEP_SPAN", 5)
    assert estimate_M(three_entry_state, S, **args).to_dict() == default


@pytest.mark.parametrize("rule", ["harmonic", "geometric"])
def test_candidate_thresholds_are_the_least_m_past_the_record_bar(rule):
    # every step to 300 and a sparse run to 10^6: the geometric rule's bar
    # passes every uniform below 1 long before, so there m is 2^53, "never"
    alpha = AlphaSchedule(rule)
    steps = np.concatenate([np.arange(1, 301), np.geomspace(301, 10**6, 40).astype(np.int64)])
    m = walk._candidate_thresholds(alpha, steps)
    assert m.dtype == np.int64 and m.min() >= 1 and m.max() <= 1 << 53
    assert np.all(alpha.sample_k_array((m - 1) * 2.0**-53) <= steps + 1)
    below = m < 1 << 53
    assert np.all(alpha.sample_k_array(m[below] * 2.0**-53) > steps[below] + 1)
    assert below.all() == (rule == "harmonic")


def test_estimate_m_draws_no_step_past_the_last_candidate(f2xz_state, monkeypatch):
    # under the geometric rule no uniform below 1 gives K_l > l + 1 once l
    # passes ~52, so no span of steps past the one holding that step is
    # drawn, whatever the horizon; spans of 16 steps make that visible
    g = f2xz_state.group
    state = new_state(g, f2xz_state.catalogue, AlphaSchedule("geometric"))
    S = GSet(g, frozenset([g.element_from_text("(e|(1))")]))
    steps = np.arange(1, 200)
    last = int(steps[walk._candidate_thresholds(state.alpha, steps) < 1 << 53][-1])
    assert last < 60
    drawn = []
    grid = walk._uniform_grid

    def counted(keys, counters, out=None):
        drawn.append(int(counters.max(initial=0)))
        return grid(keys, counters, out=out)

    monkeypatch.setattr(walk, "_uniform_grid", counted)
    monkeypatch.setattr(walk, "_STEP_SPAN", 16)
    rep = estimate_M(state, S, N=4, eps=0.5, trials=50, horizon=100_000, seed=3)
    assert rep.failed and max(drawn) <= 2 * (last + 16) + 1


def _scan_first_clearing(order, trials, target):
    """The linear scan `_first_clearing` replaces: one Wilson call per hit time."""
    for pos, h in enumerate(order, 1):
        if wilson_interval(pos, trials)[0] >= target:
            return int(h)
    return None


@pytest.mark.parametrize("trials", [1, 2, 3, 7, 100, 10_000, 12_345])
def test_first_clearing_matches_the_scan(trials):
    rng = np.random.default_rng(trials)
    for hits in sorted({0, 1, trials // 3, trials - 1, trials}):
        order = np.sort(rng.integers(1, 4096, size=hits))
        for target in (0.0, 0.1, 0.5, 0.75, float(rng.random()), 0.999, 1.0):
            want = _scan_first_clearing(order, trials, target)
            assert walk._first_clearing(order, trials, target) == want, (hits, target)


def test_first_clearing_edge_cases():
    order = np.arange(1, 101)
    # no position clears: even 100 hits of 100 trials leave the lower bound below 1
    assert walk._first_clearing(order, 100, 1.0) is None
    assert walk._first_clearing(order[:50], 100, 0.75) is None
    # the first position clears
    assert walk._first_clearing(order, 100, 0.0) == 1
    # every trial hits: the answer is where the scan stops, not the last hit
    assert walk._first_clearing(order, 100, 0.9) == _scan_first_clearing(order, 100, 0.9) < 100
