"""The nine build-acceptance checks, one test (and one verdict line) each.

Run with `pytest -v tests/test_acceptance.py`; the per-test PASSED/FAILED
verdicts are the acceptance report. Stated tolerances are asserted as-is —
a miss here is a build failure, not a flaky test.
"""

import hashlib
import time
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from groupwalk import (
    FreeGroup,
    GSet,
    Lamplighter,
    SparseMeasure,
    WalkModel,
    build_measure,
    convolve,
    convolve_reference,
    delta,
    empirical_increment_law,
    estimate_M,
    nondisjointness_report,
    tv_curve,
    tv_distance,
)
from groupwalk.cli import main
from groupwalk.diagnostics import control_experiment
from groupwalk.presets import preset_state

SEED = 20260813


def _defect_by_group_law(g, B, F):
    """|BF \\ F| by the group law on sets, independent of the library's count."""
    return len({g.mul(b, f) for b in B.elements for f in F.elements} - F.elements)


def test_criterion_1_construction_invariants_exact():
    t0 = time.perf_counter()
    state = preset_state("f2xz", seed=SEED, stages=32)
    nu = build_measure(state, mode="exact")
    elapsed = time.perf_counter() - t0
    g = state.group
    d = nu.as_dict()
    # symmetric atom by atom, exact equality
    for x, m in d.items():
        assert d[g.inv(x)] == m
    assert nu.total_mass() == Fraction(32, 33)
    assert nu.lost_mass == Fraction(1, 33)
    for rec in state.records:
        assert rec.F.is_symmetric()
        # the defining inequality with integer counts: |B F \ F| * i < |F|
        assert _defect_by_group_law(g, rec.B, rec.F) * rec.i < len(rec.F)
    assert elapsed < 10.0, f"construction took {elapsed:.2f}s"


def test_criterion_2_kernel_oracle_equivalence():
    F2 = FreeGroup(2)
    LAMP = Lamplighter()
    rng = np.random.default_rng(0)

    def rand_f2():
        w = ()
        for _ in range(int(rng.integers(0, 6))):
            l = int(rng.integers(1, 3)) * (1 if rng.integers(2) else -1)
            w = F2.mul(w, (l,))
        return w

    def rand_lamp():
        lamps = tuple(sorted(set(int(v) for v in rng.integers(-2, 3, size=rng.integers(0, 3)))))
        return (lamps, int(rng.integers(-2, 3)))

    def rand_measure(g, rand_el):
        n = int(rng.integers(1, 31))
        items = {}
        for _ in range(n):
            m = Fraction(int(rng.integers(1, 64)), 256)
            x = rand_el()
            items[x] = items.get(x, Fraction(0)) + m
        return SparseMeasure.from_items(g, list(items.items()), mode="exact")

    checked = 0
    for _ in range(100):
        mu, nu = rand_measure(F2, rand_f2), rand_measure(F2, rand_f2)
        got, want = convolve(mu, nu), convolve_reference(mu, nu)
        assert got.as_dict() == want.as_dict() and got.lost_mass == want.lost_mass
        checked += 1
    for _ in range(100):
        mu, nu = rand_measure(LAMP, rand_lamp), rand_measure(LAMP, rand_lamp)
        got, want = convolve(mu, nu), convolve_reference(mu, nu)
        assert got.as_dict() == want.as_dict() and got.lost_mass == want.lost_mass
        checked += 1
    assert checked == 200


def test_criterion_3_tv_contraction_on_preset_curves(f2xz_nu, z_state):
    mu = delta(f2xz_nu.group)
    curve = tv_curve(mu, ((), (1,)), f2xz_nu, n_max=6, budget=2_000_000)
    curves = [curve.points]
    nu_z = build_measure(z_state, mode="exact")
    curve_z = tv_curve(delta(nu_z.group, mode="exact"), (1,), nu_z, n_max=12)
    curves.append(curve_z.points)
    for pts in curves:
        for prev, cur in zip(pts, pts[1:]):
            growth = float(cur.bracket) - float(prev.bracket)
            assert float(cur.value) <= float(prev.value) + 2.0 * growth + 1e-12


def test_criterion_4_nondisjointness_desk_check(f2xz_nu):
    g = f2xz_nu.group
    S = GSet(g, frozenset([((), (1,))]))
    rep = nondisjointness_report(
        delta(g), S, f2xz_nu, n_max=40, budget=2_000_000, slack=0.5
    )
    assert rep.bound == 0.0
    best = min(r[1] for r in rep.per_n_min)
    assert rep.verdict == "pass"
    assert best <= 0.5, f"min_n d_n = {best}"


def test_criterion_5_amenable_sanity(z_state):
    nu = build_measure(z_state, mode="exact")
    curve = tv_curve(
        delta(nu.group, mode="exact"), (1,), nu, n_max=50, stop_below=0.2 - 1e-12
    )
    best = min(p.value for p in curve.points)
    assert best < 0.2, f"min d_n = {best}"


def test_criterion_6_free_control():
    rep = control_experiment("free-group-srw", seed=SEED)
    d = {r[0]: r[1] for r in rep.per_n_min}
    assert d[1] == 2.0
    assert d[10] >= 1.0
    assert rep.verdict == "pass"


def test_criterion_7_coupling_law(f2xz_state, f2xz_nu):
    model = WalkModel(f2xz_state)
    emp, stats = empirical_increment_law(model, 1_000_000, seed=SEED)
    v, _ = tv_distance(emp, f2xz_nu)
    deficit = 1.0 / (f2xz_state.stage + 1)
    assert v < 0.02 + deficit, f"tv = {v}"
    for color in ("blue", "red", "green"):
        lo, hi = stats["colors"][color]["wilson95"]
        assert 1 / 3 - 0.01 < lo and hi < 1 / 3 + 0.01


def test_criterion_8_decomposition_event(f2xz_state):
    S = GSet(f2xz_state.group, frozenset([((), (1,))]))
    rep = estimate_M(
        f2xz_state, S, N=4, eps=0.25, trials=10_000, horizon=16_384, seed=SEED
    )
    assert not rep.failed
    assert rep.M == 2888
    assert rep.ci[0] >= 0.75
    values = [row[1] for row in rep.curve]
    assert values == sorted(values), "hit-probability curve must be non-decreasing"


def test_criterion_9_worker_count_determinism(tmp_path):
    digests = []
    for workers in ("1", "4", "8"):
        out = tmp_path / f"w{workers}"
        rc = main(
            [
                "report",
                "--preset",
                "f2xz",
                "--stages",
                "16",
                "--seed",
                str(SEED),
                "--threads",
                workers,
                "--budget-atoms",
                "100000",
                "--n-max",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        h = hashlib.sha256()
        h.update((out / "report.csv").read_bytes())
        h.update((out / "report.json").read_bytes())
        digests.append(h.hexdigest())
    assert digests[0] == digests[1] == digests[2]
