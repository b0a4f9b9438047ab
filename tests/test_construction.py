from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from groupwalk import (
    AlphaSchedule,
    AmenableSubgroup,
    BudgetError,
    ConstructionState,
    FreeAbelian,
    GSet,
    Lamplighter,
    SpecMismatchError,
    VisibilityCatalogue,
    build_measure,
    construction_step,
    enumerate_element,
    make_entry,
    new_state,
    run_construction,
)
from groupwalk.amenable import invariance_defect
from groupwalk.construction import mc_limsup_check
from groupwalk.presets import preset_state

Z = FreeAbelian(1)


def _z_catalogue(seed=1):
    S = GSet(Z, frozenset([(1,)]))
    H = AmenableSubgroup(Z, "whole")
    return VisibilityCatalogue((make_entry(S, H),), seed=seed)


def _lamp_catalogue(seed=5):
    g = Lamplighter()
    S = GSet(g, frozenset([((0,), 0)]))
    H = AmenableSubgroup(g, "lamps")
    return VisibilityCatalogue((make_entry(S, H),), seed=seed)


# -- alpha schedules --------------------------------------------------------


@given(st.integers(1, 200))
def test_harmonic_partial_sums(k):
    a = AlphaSchedule("harmonic")
    assert a.partial_sum(k) == 1 - Fraction(1, k + 1)
    assert a.tail(k) == Fraction(1, k + 1)
    assert sum(a.alpha(i) for i in range(1, k + 1)) == a.partial_sum(k)


@given(st.integers(1, 60))
def test_geometric_partial_sums(k):
    a = AlphaSchedule("geometric")
    assert sum(a.alpha(i) for i in range(1, k + 1)) == a.partial_sum(k)
    assert a.partial_sum(k) + a.tail(k) == 1


def test_harmonic_sampler_tail_law():
    # P(K >= n) = 1/n under the harmonic schedule
    a = AlphaSchedule("harmonic")
    rng = np.random.default_rng(7)
    u = rng.random(200_000)
    ks = a.sample_k_array(u)
    for n in (2, 5, 10):
        frac = float(np.mean(ks >= n))
        assert abs(frac - 1.0 / n) < 0.01
    # scalar and vector samplers agree
    for x in u[:500]:
        assert a.sample_k(float(x)) == a.sample_k_array(np.array([x]))[0]


def test_mc_limsup_check_matches_exact_value():
    # exact P(K_l > l + c for some l <= L) by inclusion: the events are
    # independent across l with P = 1/(l+c+1), so the miss probability
    # telescopes to (c+1)/(L+c+1)
    res = mc_limsup_check(
        AlphaSchedule("harmonic"), trials=20_000, length=200, c=5, seed=9
    )
    exact = 1.0 - 6.0 / 206.0
    lo, hi = res["wilson95"]
    assert lo <= exact <= hi


# -- catalogue scheduling ----------------------------------------------------


def test_schedule_deterministic_and_consistent():
    cat = VisibilityCatalogue(
        (_z_catalogue().entries[0], _z_catalogue().entries[0]), seed=3
    )
    idx = [cat.draw_index(i) for i in range(1, 40)]
    assert idx == [cat.draw_index(i) for i in range(1, 40)]
    arr = cat.draw_index_array(np.arange(1, 40))
    assert list(arr) == idx


# -- the stage recursion -----------------------------------------------------


def test_first_translate_is_identity():
    state = new_state(Z, _z_catalogue(), AlphaSchedule("harmonic"))
    state = construction_step(state)
    assert state.records[0].c == Z.identity
    assert state.records[0].i == 1


def test_z_construction_shape():
    state = run_construction(
        new_state(Z, _z_catalogue(), AlphaSchedule("harmonic")), 8
    )
    for rec in state.records:
        # on Z every F_i is a symmetric interval and B_i = S u S^-1
        assert rec.B.elements == frozenset([(1,), (-1,)])
        assert rec.F.is_symmetric()
        assert invariance_defect(Z, rec.B, rec.F) * rec.i < len(rec.F)
    # c_i follows the spiral enumeration
    assert [r.c for r in state.records] == [
        enumerate_element(Z, i) for i in range(1, 9)
    ]


def test_measure_total_and_symmetry_exact():
    state = run_construction(
        new_state(Z, _z_catalogue(), AlphaSchedule("harmonic")), 8
    )
    nu = build_measure(state, mode="exact")
    assert nu.total_mass() == Fraction(8, 9)
    assert nu.lost_mass == Fraction(1, 9)
    d = nu.as_dict()
    for x, m in d.items():
        assert d[Z.inv(x)] == m


def test_float_measure_tracks_exact(z_state):
    exact = build_measure(z_state, mode="exact")
    fl = build_measure(z_state, mode="float")
    for x, m in exact.as_dict().items():
        assert fl.as_dict()[x] == pytest.approx(float(m), rel=1e-12)


def test_generic_conjugation_path_on_lamplighter():
    g = Lamplighter()
    state = run_construction(
        new_state(g, _lamp_catalogue(), AlphaSchedule("harmonic")), 5
    )
    for rec in state.records:
        assert rec.B.is_symmetric()
        # B_i must sit inside H_i = lamps
        assert all(x[1] == 0 for x in rec.B.elements)
        assert invariance_defect(g, rec.B, rec.F) * rec.i < len(rec.F)
    nu = build_measure(state, mode="exact")
    assert nu.total_mass() == Fraction(5, 6)
    d = nu.as_dict()
    for x, m in d.items():
        assert d[g.inv(x)] == m


def test_budget_error_names_the_stage_once():
    # a product cap below |A_i| makes stage i refuse its product set
    state = new_state(Lamplighter(), _lamp_catalogue(), AlphaSchedule("harmonic"), product_cap=2)
    with pytest.raises(BudgetError) as info:
        run_construction(state, 5)
    exc = info.value
    assert isinstance(exc.stage, int)
    assert str(exc).startswith(f"stage {exc.stage}: ")
    assert str(exc).count("stage ") == 1


def test_state_json_round_trip(f2xz_state):
    text = f2xz_state.to_json()
    again = ConstructionState.from_json(text)
    assert again.to_json() == text
    assert again.stage == f2xz_state.stage
    assert again.A.elements == f2xz_state.A.elements


def test_resume_equals_single_run():
    mk = lambda: new_state(Z, _z_catalogue(), AlphaSchedule("harmonic"))
    direct = run_construction(mk(), 10)
    half = run_construction(mk(), 5)
    resumed = run_construction(
        ConstructionState.from_json(half.to_json()), 10
    )
    assert resumed.to_json() == direct.to_json()
    assert (
        build_measure(resumed, mode="exact").to_text()
        == build_measure(direct, mode="exact").to_text()
    )


def test_run_construction_is_idempotent_at_target():
    state = run_construction(
        new_state(Z, _z_catalogue(), AlphaSchedule("harmonic")), 6
    )
    assert run_construction(state, 6) is state
    # a target behind the current stage is a no-op, never a rollback
    assert run_construction(state, 3) is state
    with pytest.raises(SpecMismatchError):
        run_construction(state, 0)


def test_new_state_rejects_foreign_catalogue():
    with pytest.raises(SpecMismatchError):
        new_state(Lamplighter(), _z_catalogue(), AlphaSchedule("harmonic"))
