from fractions import Fraction

import pytest

from groupwalk import (
    FreeAbelian,
    FreeGroup,
    GSet,
    SparseMeasure,
    SpecMismatchError,
    build_measure,
    control_experiment,
    convolve,
    delta,
    nondisjointness_report,
    tv_curve,
    uniform,
)
from groupwalk.measures import _window_plan
from groupwalk.presets import preset_state

Z = FreeAbelian(1)
F2 = FreeGroup(2)


def _srw():
    gens = GSet(F2, frozenset([(1,), (-1,), (2,), (-2,)]))
    return uniform(gens, mode="exact"), delta(F2, mode="exact")


def test_free_srw_curve_is_exactly_two():
    # t*rho_n and rho_n live on words of different parity: d_n = 2 always
    nu, mu = _srw()
    curve = tv_curve(mu, (1,), nu, n_max=5)
    assert [p.value for p in curve.points] == [2.0] * 6
    assert [p.bracket for p in curve.points] == [0.0] * 6


def test_lazy_free_walk_bracket_stays_above_one():
    # the lazy SRW on F2 (1/2 at e, 1/8 per generator) has uniform harmonic
    # measure on cylinders, so the ideal d_n(a) decreases to exactly 1; a
    # budgeted float run far past exact reach must keep value + bracket >= 1
    nu = SparseMeasure.from_items(F2, [((), 0.5)] + [((l,), 0.125) for l in (1, -1, 2, -2)])
    curve = tv_curve(delta(F2), (1,), nu, n_max=30, budget=2_000)
    assert len(curve.points) == 31 and not curve.budget_flag
    assert curve.points[1].value == 1.5  # |a nu - nu| for the step law itself
    assert all(p.value + p.bracket >= 1 for p in curve.points)
    assert curve.points[-1].bracket > 0  # the budget did prune


def test_curve_contraction_under_budget(f2xz_nu):
    mu = delta(f2xz_nu.group)
    t = ((), (1,))
    curve = tv_curve(mu, t, f2xz_nu, n_max=5, budget=30_000)
    pts = curve.points
    assert len(pts) == 6 and not curve.budget_flag
    for prev, cur in zip(pts, pts[1:]):
        growth = cur.bracket - prev.bracket
        assert growth >= 0
        assert cur.value <= prev.value + 2 * growth + 1e-12


def test_curve_early_stop(z_state):
    nu = build_measure(z_state, mode="exact")
    mu = delta(Z, mode="exact")
    curve = tv_curve(mu, (1,), nu, n_max=50, stop_below=0.5)
    assert curve.stopped_early
    assert curve.points[-1].value <= 0.5
    assert curve.points[-1].n < 50


def test_curve_rejects_bad_args(z_state):
    nu = build_measure(z_state, mode="exact")
    mu = delta(Z, mode="exact")
    with pytest.raises(SpecMismatchError):
        tv_curve(mu, (1,), nu, n_max=0)


def test_translations_must_be_canonical():
    # tv_left_translate trusts t, so both entry points check it up front
    nu, mu = _srw()
    with pytest.raises(SpecMismatchError):
        tv_curve(mu, (1, -1), nu, n_max=2)
    with pytest.raises(SpecMismatchError):
        nondisjointness_report(mu, GSet(F2, frozenset([(1, -1)])), nu, n_max=2)


def test_report_pass_on_amenable(z_state):
    nu = build_measure(z_state, mode="exact")
    mu = delta(Z, mode="exact")
    S = GSet(Z, frozenset([(1,)]))
    rep = nondisjointness_report(mu, S, nu, n_max=50)
    assert rep.verdict == "pass"
    assert rep.bound == 0.0  # |S| = 1
    assert min(r[1] for r in rep.per_n_min) <= rep.bound + rep.slack


def test_report_never_fails_only_inconclusive():
    nu, mu = _srw()
    S = GSet(F2, frozenset([(1,)]))
    rep = nondisjointness_report(mu, S, nu, n_max=4, slack=0.5)
    assert rep.verdict == "inconclusive"  # free walk stays at 2, bound is 0


def test_report_bound_scales_with_s():
    nu, mu = _srw()
    S = GSet(F2, frozenset([(1,), (-1,)]))
    rep = nondisjointness_report(mu, S, nu, n_max=2, slack=0.0)
    assert rep.bound == pytest.approx(1.0)  # 2 * (1 - 1/2) * 1


def test_report_csv_and_json_shape(z_state):
    nu = build_measure(z_state, mode="exact")
    mu = delta(Z, mode="exact")
    S = GSet(Z, frozenset([(1,)]))
    rep = nondisjointness_report(mu, S, nu, n_max=10)
    lines = rep.to_csv().strip().splitlines()
    # the report carries no provenance: the cli stamps it on each artifact
    assert lines[0] == "t,n,value,bracket"
    row = lines[1].split(",")
    assert row[0] == "(1)" and row[1] == "0" and float(row[2]) == 2.0
    doc = rep.to_dict()
    assert doc["verdict"] == "pass"
    assert "fingerprint" not in doc and "seed" not in doc
    # every curve point appears in the csv
    n_rows = sum(len(c["points"]) for c in doc["curves"])
    assert len(lines) == 1 + n_rows


def test_control_free_group():
    rep = control_experiment("free-group-srw", seed=1)
    assert rep.verdict == "pass"
    d = {r[0]: r[1] for r in rep.per_n_min}
    assert d[1] == 2.0
    assert d[10] >= 1.0


def test_control_amenable():
    rep = control_experiment("amenable-sanity", seed=1, stages=40)
    assert rep.verdict == "pass"
    assert min(r[1] for r in rep.per_n_min) < 0.2


def test_control_aliases():
    assert control_experiment("f2-control", seed=1).verdict == "pass"
    with pytest.raises(SpecMismatchError):
        control_experiment("no-such-control")


@pytest.mark.parametrize(
    "preset, stages, budget, n_max, t",
    [("f2xz", 6, 300, 4, ((), (1,))), ("z-amenable", 12, 20, 8, (1,))],
    ids=["f2xz", "z-amenable"],
)
def test_budgeted_float_curve_is_within_brackets_of_exact(preset, stages, budget, n_max, t):
    # the soundness oracle: |d_n(float, budgeted) - d_n(exact, unbudgeted)|
    # <= bracket_float + bracket_exact at every n (plus float rounding)
    state = preset_state(preset, seed=20260813, stages=stages)
    nu = build_measure(state, mode="float")
    nu_exact = build_measure(state, mode="exact")
    g = state.group
    fast = tv_curve(delta(g), t, nu, n_max=n_max, budget=budget).points
    exact = tv_curve(delta(g, mode="exact"), t, nu_exact, n_max=n_max).points
    assert len(fast) == len(exact) == n_max + 1
    for f, e in zip(fast, exact):
        assert abs(f.value - e.value) <= f.bracket + e.bracket + 1e-12
    if preset == "f2xz":
        # every step takes the window route
        rho, windows = delta(g), []
        for _ in range(n_max):
            windows.append(_window_plan(rho, nu) is not None)
            rho = convolve(rho, nu, budget=budget)
        assert windows == [True] * n_max
