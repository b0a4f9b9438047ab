"""The four benchmark workloads: set-up, the timed pipeline, and output checks.

Each workload is four plain functions plus a size table:

* ``setup(seed, sizes)`` prepares inputs (timed as ``setup_s``);
* ``run(inp, sizes, seed)`` makes the calls into groupwalk that the
  workload exists to time (traced in a traced run);
* ``summarize(inp, sizes, raw, ledger)`` turns the outputs into plain facts,
  doing any exact re-verification the checks need;
* ``check(sizes, seed, facts)`` returns one ``"<check>: <detail>"`` string per
  failed output check. It is pure, so tests can feed it tampered facts.

``ledger`` holds one row per ``convolve`` call made during ``run``, recorded
by the observer in ``tracer.ConvolveLedger``.

Which inputs the seed changes: the f2xz and lamplighter catalogues have one
entry each and the controls are fixed, so only couple-f2xz draws anything
from the seed (its ``estimate_M`` trials and increment samples).
"""

from __future__ import annotations

from fractions import Fraction

from groupwalk import amenable, construction, diagnostics, groups, measures, presets, walk

ACCEPTANCE_SEED = 20260813

# Sizes per scale. "acceptance" is the acceptance suite's shape (criteria 3,
# 5-8 and the lamplighter conjugation test); "bench" scales it so one
# repetition takes a few seconds on one core while the named layer still
# does most of the work; "smoke" is for the benchmark's own tests.
SIZES = {
    "acceptance": {
        "tv-f2xz": {"stages": 32, "n_max": 6, "budget": 2_000_000},
        "couple-f2xz": {
            "stages": 32, "N": 4, "eps": 0.25, "trials": 10_000,
            "horizon": 16_384, "samples": 1_000_000, "expect_M": 2888,
        },
        "exact-controls": {"free_n_max": 10, "z_stages": 50, "z_n_max": 50},
        "lamplighter-construct": {"stages": 5, "product_cap": 1_000_000, "tail_n_max": 3},
    },
    "bench": {
        "tv-f2xz": {"stages": 32, "n_max": 6, "budget": 200_000},
        # M does not depend on the horizon once the horizon exceeds it, so
        # 4,096 keeps criterion 8's M = 2888 at the acceptance seed
        "couple-f2xz": {
            "stages": 32, "N": 4, "eps": 0.25, "trials": 10_000,
            "horizon": 4_096, "samples": 1_000_000, "expect_M": 2888,
        },
        "exact-controls": {"free_n_max": 10, "z_stages": 50, "z_n_max": 50},
        # stage 5's product set is capped just above |A_4| = 514, which
        # cuts it from ~34 s to ~4 s and marks the stage truncated
        "lamplighter-construct": {"stages": 5, "product_cap": 600, "tail_n_max": 2},
    },
    "smoke": {
        "tv-f2xz": {"stages": 8, "n_max": 4, "budget": 3_000},
        "couple-f2xz": {
            "stages": 8, "N": 4, "eps": 0.5, "trials": 400,
            "horizon": 1_024, "samples": 50_000, "expect_M": None,
        },
        "exact-controls": {"free_n_max": 4, "z_stages": 20, "z_n_max": 50},
        "lamplighter-construct": {"stages": 4, "product_cap": 600, "tail_n_max": 1},
    },
}


def _points(curve) -> list[tuple[int, float, float]]:
    return [(p.n, p.value, p.bracket) for p in curve.points]


# -- tv-f2xz: the convolution kernel ----------------------------------------


def tv_setup(seed, sizes):
    state = presets.preset_state("f2xz", seed=seed, stages=sizes["stages"])
    nu = construction.build_measure(state, mode="float")
    return {"nu": nu, "t": nu.group.element_from_text("(e|(1))")}


def tv_run(inp, sizes, seed):
    nu = inp["nu"]
    return diagnostics.tv_curve(
        measures.delta(nu.group), inp["t"], nu,
        n_max=sizes["n_max"], budget=sizes["budget"], threads=1,
    )


def tv_summarize(inp, sizes, curve, ledger):
    pts = _points(curve)
    return {
        "points": pts,
        "bracket_final": pts[-1][2],
        "budget_flag": curve.budget_flag,
        "steps": [(r.pairs, r.atoms_out, r.located, r.lost) for r in ledger],
        "work": sum(r.pairs for r in ledger),
    }


def tv_check(sizes, seed, facts):
    out = []
    pts = facts["points"]
    if facts["budget_flag"] or len(pts) != sizes["n_max"] + 1:
        out.append(f"steps: {len(pts) - 1} of {sizes['n_max']} steps computed")
    # criterion 3: d_{n+1} <= d_n + 2 * (bracket growth) at every step
    for (n0, v0, b0), (n1, v1, b1) in zip(pts, pts[1:]):
        if v1 > v0 + 2.0 * (b1 - b0) + 1e-12:
            out.append(f"contraction: d_{n1} = {v1!r} > d_{n0} + 2 * growth")
    for n, (_, atoms, located, lost) in enumerate(facts["steps"], start=1):
        if located + lost < 1.0 - 1e-9:
            out.append(f"mass: step {n} located {located!r} + ledger {lost!r} < 1 - 1e-9")
        if atoms > sizes["budget"]:
            out.append(f"budget: step {n} has {atoms} atoms > {sizes['budget']}")
    return out


# -- couple-f2xz: walk and detrng -------------------------------------------


def couple_setup(seed, sizes):
    state = presets.preset_state("f2xz", seed=seed, stages=sizes["stages"])
    g = state.group
    return {
        "state": state,
        "nu": construction.build_measure(state, mode="float"),
        "S": groups.GSet(g, frozenset([g.element_from_text("(e|(1))")])),
        "model": walk.WalkModel(state),
    }


def couple_run(inp, sizes, seed):
    rep = walk.estimate_M(
        inp["state"], inp["S"], N=sizes["N"], eps=sizes["eps"],
        trials=sizes["trials"], horizon=sizes["horizon"], seed=seed,
    )
    emp, _ = walk.empirical_increment_law(inp["model"], sizes["samples"], seed=seed)
    return rep, measures.tv_distance(emp, inp["nu"])


def couple_summarize(inp, sizes, raw, ledger):
    rep, (tv, bracket) = raw
    return {
        "failed": rep.failed,
        "M": rep.M,
        "ci": tuple(rep.ci),
        "curve": [row[1] for row in rep.curve],
        "inc_tv": float(tv),
        "bracket_final": float(bracket),
        "k": inp["state"].stage,
        "work": sizes["trials"] * sizes["horizon"],
    }


def couple_check(sizes, seed, facts):
    out = []
    if facts["failed"] or facts["M"] is None:
        out.append("M: estimate_M found no threshold within the horizon")
    if facts["ci"][0] < 1.0 - sizes["eps"]:
        out.append(f"wilson: lower bound {facts['ci'][0]!r} < {1.0 - sizes['eps']}")
    if facts["curve"] != sorted(facts["curve"]):
        out.append("monotone: hit-probability curve decreases")
    if seed == ACCEPTANCE_SEED and sizes["expect_M"] is not None and facts["M"] != sizes["expect_M"]:
        out.append(f"M_seed: M = {facts['M']} at seed {seed}, expected {sizes['expect_M']}")
    limit = 0.02 + 1.0 / (facts["k"] + 1)
    if not facts["inc_tv"] < limit:
        out.append(f"increment_tv: {facts['inc_tv']!r} >= {limit!r}")
    return out


# -- exact-controls: exact mode on Fraction weights -------------------------


def exact_setup(seed, sizes):
    return {}


def exact_run(inp, sizes, seed):
    free = diagnostics.control_experiment("free-group-srw", seed=seed, n_max=sizes["free_n_max"])
    amen = diagnostics.control_experiment(
        "z-amenable", seed=seed, stages=sizes["z_stages"], n_max=sizes["z_n_max"]
    )
    return free, amen


def exact_summarize(inp, sizes, raw, ledger):
    free, amen = raw
    return {
        "free_verdict": free.verdict,
        "amenable_verdict": amen.verdict,
        "free_d": {n: v for n, v, _ in free.per_n_min},
        "bracket_final": float(amen.per_n_min[-1][2]),
        "work": sum(r.pairs for r in ledger),
    }


def exact_check(sizes, seed, facts):
    out = []
    for name in ("free", "amenable"):
        if facts[f"{name}_verdict"] != "pass":
            out.append(f"{name}_verdict: {facts[f'{name}_verdict']}")
    d = facts["free_d"]
    n = sizes["free_n_max"]
    if d.get(1) != 2.0:
        out.append(f"free_d1: d_1 = {d.get(1)!r}, expected exactly 2")
    if not d.get(n, 0.0) >= 1.0:
        out.append(f"free_dn: d_{n} = {d.get(n)!r} < 1")
    return out


# -- lamplighter-construct: groups, amenable, construction ------------------


def lamp_setup(seed, sizes):
    g = groups.Lamplighter()
    t = ((0,), 0)
    entry = construction.make_entry(
        groups.GSet(g, frozenset([t])), amenable.AmenableSubgroup(g, "lamps")
    )
    return {
        "group": g,
        "t": t,
        "catalogue": construction.VisibilityCatalogue((entry,), seed=seed),
    }


def lamp_run(inp, sizes, seed):
    g = inp["group"]
    state = construction.new_state(
        g, inp["catalogue"], construction.AlphaSchedule("harmonic"),
        product_cap=sizes["product_cap"],
    )
    kept = None
    while state.stage < sizes["stages"]:
        state = construction.construction_step(state)
        if state.stage == sizes["stages"] - 1:
            kept = state
    nu = construction.build_measure(kept, mode="float")
    curve = diagnostics.tv_curve(
        measures.delta(g), inp["t"], nu, n_max=sizes["tail_n_max"], threads=1
    )
    return state, curve


def lamp_summarize(inp, sizes, raw, ledger):
    state, curve = raw
    g = state.group
    nu = construction.build_measure(state, mode="exact")
    d = nu.as_dict()
    pts = _points(curve)
    return {
        "k": state.stage,
        "total": nu.total_mass(),
        "asymmetric_atoms": sum(1 for x, m in d.items() if d.get(g.inv(x)) != m),
        "folner": [
            (r.i, amenable.invariance_defect(g, r.B, r.F), len(r.F)) for r in state.records
        ],
        "tail_points": pts,
        "bracket_final": pts[-1][2],
        "work": sum(r.pairs for r in ledger),
    }


def lamp_check(sizes, seed, facts):
    out = []
    k = facts["k"]
    if k != sizes["stages"]:
        out.append(f"stages: reached stage {k} of {sizes['stages']}")
    if facts["total"] != Fraction(k, k + 1):
        out.append(f"total_mass: {facts['total']} != {k}/{k + 1}")
    if facts["asymmetric_atoms"]:
        out.append(f"symmetry: {facts['asymmetric_atoms']} atoms differ from their inverse")
    for i, defect, size in facts["folner"]:
        if not defect * i < size:
            out.append(f"folner: stage {i} has defect*i = {defect * i} >= |F| = {size}")
    if len(facts["tail_points"]) != sizes["tail_n_max"] + 1:
        out.append("tail: TV tail stopped early")
    return out


class Workload:
    def __init__(self, name, setup, run, summarize, check):
        self.name, self.setup, self.run = name, setup, run
        self.summarize, self.check = summarize, check


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tv-f2xz", tv_setup, tv_run, tv_summarize, tv_check),
        Workload("couple-f2xz", couple_setup, couple_run, couple_summarize, couple_check),
        Workload("exact-controls", exact_setup, exact_run, exact_summarize, exact_check),
        Workload("lamplighter-construct", lamp_setup, lamp_run, lamp_summarize, lamp_check),
    )
}

# The work unit behind `work_per_s`: convolution pairs sum |rho|*|nu| on the
# convolving workloads, trials x horizon cells on couple-f2xz.
WORK_UNIT = {
    "tv-f2xz": "pairs",
    "couple-f2xz": "cells",
    "exact-controls": "pairs",
    "lamplighter-construct": "pairs",
}

# How strongly each workload's repetition time follows the host-speed
# reference kernel (hostspeed.py): the slope of log(repetition time) on
# log(mean kernel time), fitted over 2.5-4 minutes of back-to-back
# repetitions at the bench size. The pure-Python workloads follow it one to
# one; the numpy-heavy ones, partly bound by memory, about half as much.
HOST_SENSITIVITY = {
    "tv-f2xz": 0.6,
    "couple-f2xz": 0.5,
    "exact-controls": 1.0,
    "lamplighter-construct": 1.0,
}
