import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from groupwalk import (
    AlphaSchedule,
    AmenableSubgroup,
    BudgetError,
    FreeAbelian,
    GSet,
    Lamplighter,
    SparseMeasure,
    SpecMismatchError,
    VisibilityCatalogue,
    build_measure,
    construction_step,
    enumerate_element,
    make_entry,
    new_state,
    parse_group,
    resume_construction,
    run_construction,
)
from groupwalk import amenable
from groupwalk.config import parse_config_text
from groupwalk.construction import catalogue_from_texts
from groupwalk.presets import fresh_state, preset_state

Z = FreeAbelian(1)


def _defect_by_group_law(g, B, F):
    """|BF \\ F| by the group law on sets, independent of the library's count."""
    return len({g.mul(b, f) for b in B.elements for f in F.elements} - F.elements)


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
        assert _defect_by_group_law(Z, rec.B, rec.F) * rec.i < len(rec.F)
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


def _fraction_dict_measure(state, mode):
    """nu_k assembled one Fraction addition per atom, then through from_items:
    the assembly `build_measure` replaced, kept here as its reference."""
    g = state.group
    acc = {}

    def add(x, w):
        acc[x] = acc.get(x, Fraction(0)) + w

    for rec in state.records:
        w = state.alpha.alpha(rec.i) / 3
        add(rec.c, w)
        add(g.inv(rec.c), w)
        lam = w / len(rec.F)
        for f in rec.F.elements:
            add(f, lam)
    lost = state.alpha.tail(state.stage)
    if mode == "exact":
        return SparseMeasure.from_items(g, acc, "exact", lost_mass=lost)
    return SparseMeasure.from_items(
        g, {x: float(m) for x, m in acc.items()}, "float", lost_mass=float(lost)
    )


def _lamp_state(stages=5):
    return run_construction(new_state(Lamplighter(), _lamp_catalogue(), AlphaSchedule("harmonic")), stages)


def _codecless_state():
    g = parse_group("product(lamplighter(2), free-abelian(1))")
    assert g.codec() is None
    entries = [(("(({0}|0)|(0))",), "factor:0"), (("(({}|0)|(1))",), "factor:1")]
    return run_construction(new_state(g, catalogue_from_texts(g, entries, 1)), 5)


def _hand_built_state():
    """The lamplighter's five stages with atoms past the codec's fields: two
    records share a c_i whose lamp is outside the window, one c_i has its
    marker past the 16-bit field, and one F_i has two lamps outside."""
    state = _lamp_state()
    g, recs = state.group, list(state.records)
    recs[0] = replace(recs[0], c=((30,), 2))
    recs[1] = replace(recs[1], c=((30,), 2))
    recs[2] = replace(recs[2], c=((), 40_000))
    recs[3] = replace(recs[3], F=GSet(g, recs[3].F.elements | {((24,), 0), ((-24,), 0)}))
    return replace(state, records=tuple(recs))


_MEASURE_STATES = {
    "f2xz-32": lambda request: request.getfixturevalue("f2xz_state"),
    "z-amenable-50": lambda request: request.getfixturevalue("z_state"),
    "lamplighter-5": lambda request: _lamp_state(),
    # every sum shares a factor 4 with D here, so exact mode divides it out
    "lamplighter-2": lambda request: _lamp_state(2),
    "codec-less": lambda request: _codecless_state(),
    "past-the-fields": lambda request: _hand_built_state(),
}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", list(_MEASURE_STATES))
def test_build_measure_equals_the_fraction_dict_assembly(request, name, mode):
    state = _MEASURE_STATES[name](request)
    got, want = build_measure(state, mode), _fraction_dict_measure(state, mode)
    assert got.mode == want.mode == mode
    assert got._codes.dtype == want._codes.dtype == np.uint64
    assert np.array_equal(got._codes, want._codes)
    assert got._masses.dtype == want._masses.dtype
    if mode == "exact":
        assert got._masses.tolist() == want._masses.tolist()
        assert all(type(n) is int for n in got._masses.tolist())
    else:
        assert got._masses.tobytes() == want._masses.tobytes()
    assert list(got._side.items()) == list(want._side.items())  # first-seen order too
    assert [type(v) for v in got._side.values()] == [type(v) for v in want._side.values()]
    assert got._den == want._den
    assert got.lost_mass == want.lost_mass and type(got.lost_mass) is type(want.lost_mass)
    assert got.to_text() == want.to_text()
    if name in ("codec-less", "past-the-fields"):
        assert got._side
    if name == "lamplighter-2" and mode == "exact":
        assert got._den == 9  # D = 36


def test_build_measure_validates_every_atom():
    state = _lamp_state(2)
    bad = replace(state.records[1], c=((3, 1), 0))  # lamps not increasing
    with pytest.raises(SpecMismatchError, match="strictly increasing"):
        build_measure(replace(state, records=(state.records[0], bad)))


def test_generic_conjugation_path_on_lamplighter():
    g = Lamplighter()
    state = run_construction(
        new_state(g, _lamp_catalogue(), AlphaSchedule("harmonic")), 5
    )
    for rec in state.records:
        assert rec.B.is_symmetric()
        # B_i must sit inside H_i = lamps
        assert all(x[1] == 0 for x in rec.B.elements)
        assert _defect_by_group_law(g, rec.B, rec.F) * rec.i < len(rec.F)
    nu = build_measure(state, mode="exact")
    assert nu.total_mass() == Fraction(5, 6)
    d = nu.as_dict()
    for x, m in d.items():
        assert d[g.inv(x)] == m


def test_lamplighter_stage_five_is_complete_at_the_bench_cap():
    # 600 is just above |A_5| = 514: listing the product set A_5^5 under
    # that cap truncated stage 5, conjugating by A_5 five times does not
    g = Lamplighter()
    capped = run_construction(
        new_state(g, _lamp_catalogue(), AlphaSchedule("harmonic"), product_cap=600), 5
    )
    assert capped.honest_through() == 5
    full = run_construction(new_state(g, _lamp_catalogue(), AlphaSchedule("harmonic")), 5)
    assert capped.records[-1].B.elements == full.records[-1].B.elements
    assert capped.records[-1].F.elements == full.records[-1].F.elements


def test_budget_error_names_the_stage_once(monkeypatch):
    # a product cap below |A_i| makes stage i refuse its product set
    lamp = new_state(Lamplighter(), _lamp_catalogue(), AlphaSchedule("harmonic"), product_cap=2)
    with pytest.raises(BudgetError) as info:
        run_construction(lamp, 5)
    errors = [info.value]
    # a 3-element member cap ends Z's interval family before stage 2's F_2 = [-2, 2]
    monkeypatch.setattr(amenable, "_MEMBER_SIZE_CAP", 3)
    with pytest.raises(BudgetError, match="Folner family") as info:
        run_construction(new_state(Z, _z_catalogue(), AlphaSchedule("harmonic")), 5)
    errors.append(info.value)
    assert errors[1].stage == 2
    for exc in errors:
        assert isinstance(exc.stage, int)
        assert str(exc).startswith(f"stage {exc.stage}: ")
        assert str(exc).count("stage ") == 1


def test_state_json_round_trip(f2xz_state):
    # resuming a checkpoint at its own stage count gives back the same state
    s = f2xz_state
    text = json.dumps(s.to_dict(), sort_keys=True)
    stage0 = new_state(s.group, s.catalogue, s.alpha, s.product_cap)
    again = resume_construction(stage0, text, s.stage)
    assert json.dumps(again.to_dict(), sort_keys=True) == text
    assert again.stage == f2xz_state.stage
    assert again.A.elements == f2xz_state.A.elements


def test_resume_equals_single_run():
    z = lambda: new_state(Z, _z_catalogue(), AlphaSchedule("harmonic"))
    # the lamp ({0}|0) is not central, so each resumed stage conjugates it by A_i again
    lamp = lambda: new_state(Lamplighter(), _lamp_catalogue(), AlphaSchedule("harmonic"))
    for mk, n, k in ((z, 5, 10), (lamp, 4, 5)):
        direct = run_construction(mk(), k)
        half = run_construction(mk(), n)
        resumed = resume_construction(mk(), json.dumps(half.to_dict(), sort_keys=True), k)
        assert resumed.to_dict() == direct.to_dict()
        assert (
            build_measure(resumed, mode="exact").to_text()
            == build_measure(direct, mode="exact").to_text()
        )


def test_resume_names_the_first_stage_that_differs():
    mk = lambda: new_state(Lamplighter(), _lamp_catalogue(), AlphaSchedule("harmonic"))
    doc = run_construction(mk(), 4).to_dict()
    assert len(doc["records"][3]["B"]) > 2
    doc["records"][3]["B"] = doc["records"][3]["B"][:2]
    with pytest.raises(SpecMismatchError, match="^checkpoint records differ .* at stage 4$"):
        resume_construction(mk(), json.dumps(doc), 5)


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


# state.json digests of runs made before the Folner search started where the
# entry's last search stopped; the warm start must not move a byte
_PINNED_STATES = [
    ("preset = f2xz\nseed = 1\nstages = 128", "4048f15b47e4cc38ea7fe7d9b10656e93fc619fa7fea2c7de145c972b73f2980"),
    ("preset = z-amenable\nseed = 1\nstages = 100", "da6d29e64e1889a92086f1cd3438418c8d6d01f5fcbcde48bc923adf240186f9"),
    (
        "group = lamplighter(2)\ncatalogue = ({0}|0) @ lamps\nseed = 1\nstages = 5",
        "eacec63f5aade9fe2c23a67afbc7fd12434402ba52e7c24e2e7979bfa7d49cff",
    ),
    (
        "group = product(free(2), free-abelian(1))\n"
        "catalogue = (e|(1)) @ center; (e|(2)) (e|(-5)) @ factor:1; (e|(3)) @ center\n"
        "seed = 7\nstages = 60",
        "db5b7198af8e5c4ca16069d822f9bf1f562f8b72ab4f64b4b8b943f95e978894",
    ),
]


@pytest.mark.parametrize(
    "config, digest", _PINNED_STATES, ids=["f2xz-128", "z-100", "lamplighter-5", "f2xz-3-entries"]
)
def test_state_json_bytes_are_pinned(config, digest):
    state = fresh_state(parse_config_text(config).resolved())
    assert state.product_cap == 1_000_000
    assert hashlib.sha256(json.dumps(state.to_dict(), sort_keys=True).encode()).hexdigest() == digest
