"""Total-variation curves and the finite-horizon stand-ins for limit claims.

The central quantity is d_n = |t * mu * nu^{*n} - mu * nu^{*n}| for
translations t from a finite set S. The asymptotic statement under test
says liminf_n d_n <= 2(1 - 1/|S|)|mu| for some t in S; a finite run can
support it (PASS) but never refute it, so reports carry a PASS /
INCONCLUSIVE verdict, never FAIL. Control experiments are different: they
assert explicit floors/ceilings at fixed n and may genuinely fail.

Curves are computed incrementally: one right-convolution per step feeds
both the translated and untranslated track, and all t in S share the
single mu * nu^{*n} track. Every value comes with the bracket
lost(translated) + lost(untranslated) from the measure ledgers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from groupwalk.errors import ConvolutionRefused, SpecMismatchError
from groupwalk.groups import GSet
from groupwalk.measures import (
    SparseMeasure,
    convolve,
    delta,
    tv_left_translate,
    uniform,
)


@dataclass(frozen=True)
class TVPoint:
    n: int
    value: float
    bracket: float


@dataclass(frozen=True)
class TVCurve:
    t_text: str
    points: tuple[TVPoint, ...]
    budget_flag: bool = False  # convolution refused: curve truncated early
    stopped_early: bool = False  # optional early-stop threshold reached


def _tv_steps(
    mu: SparseMeasure,
    ts: list,
    nu: SparseMeasure,
    n_max: int,
    budget: int | None,
    threads: int,
    stop,
) -> tuple[list[list[TVPoint]], bool, bool]:
    """Step rho_n = mu * nu^{*n} from n = 0 up to n_max, evaluating d_n(t) for every t in ts.

    `stop(points)` sees step n's points (one per t, in ts order) and returns
    True to end the run there. Returns (per-step point lists, budget_flag,
    stopped); a convolution refused up front ends the run with budget_flag
    set, and any other BudgetError (the accumulator cap) propagates.
    """
    rho = mu
    rows: list[list[TVPoint]] = []
    n = 0
    while True:
        points = []
        for t in ts:
            v, br = tv_left_translate(rho, t)
            points.append(TVPoint(n, float(v), float(br)))
        rows.append(points)
        if stop(points):
            return rows, False, True
        if n >= n_max:
            return rows, False, False
        try:
            rho = convolve(rho, nu, budget=budget, threads=threads)
        except ConvolutionRefused:
            return rows, True, False
        n += 1


def tv_curve(
    mu: SparseMeasure,
    t,
    nu: SparseMeasure,
    n_max: int,
    budget: int | None = None,
    threads: int = 1,
    stop_below: float | None = None,
) -> TVCurve:
    """d_n = tv(t * mu * nu^{*n}, mu * nu^{*n}) for n = 0..n_max."""
    if n_max < 1:
        raise SpecMismatchError("n_max must be >= 1")
    g = mu.group
    g.validate(t)

    def stop(points):
        p = points[0]
        return stop_below is not None and p.n > 0 and p.value <= stop_below

    rows, budget_flag, stopped = _tv_steps(mu, [t], nu, n_max, budget, threads, stop)
    return TVCurve(g.element_to_text(t), tuple(r[0] for r in rows), budget_flag, stopped)


@dataclass(frozen=True)
class TVReport:
    """Curves for every t in S against the non-disjointness bound."""

    group_text: str
    mu_desc: str
    S_texts: tuple[str, ...]
    bound: float
    slack: float
    n_max: int
    budget: int | None
    curves: tuple[TVCurve, ...]
    per_n_min: tuple[tuple[int, float, float], ...]  # (n, min value, its bracket)
    verdict: str  # "pass" | "inconclusive" | "fail" (fail only in controls)
    control_floor: str | None = None
    fingerprint: str = ""
    seed: int | None = None

    def to_csv(self) -> str:
        lines = [f"# fingerprint={self.fingerprint} seed={self.seed}"]
        lines.append("t,n,value,bracket")
        for curve in self.curves:
            for p in curve.points:
                lines.append(f"{curve.t_text},{p.n},{p.value!r},{p.bracket!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "group": self.group_text,
                "mu": self.mu_desc,
                "S": list(self.S_texts),
                "bound": self.bound,
                "slack": self.slack,
                "n_max": self.n_max,
                "budget": self.budget,
                "verdict": self.verdict,
                "control_floor": self.control_floor,
                "fingerprint": self.fingerprint,
                "seed": self.seed,
                "per_n_min": [list(r) for r in self.per_n_min],
                "curves": [
                    {
                        "t": c.t_text,
                        "budget_flag": c.budget_flag,
                        "stopped_early": c.stopped_early,
                        "points": [[p.n, p.value, p.bracket] for p in c.points],
                    }
                    for c in self.curves
                ],
            },
            sort_keys=True,
        )


def nondisjointness_report(
    mu: SparseMeasure,
    S: GSet,
    nu: SparseMeasure,
    n_max: int,
    budget: int | None = None,
    slack: float = 0.5,
    threads: int = 1,
    fingerprint: str = "",
    seed: int | None = None,
) -> TVReport:
    """Compare min_{t in S} min_n d_n against 2(1 - 1/|S|)|mu| + slack.

    PASS when some (t, n) meets the bound within bracket + slack;
    INCONCLUSIVE otherwise (a finite horizon cannot refute a liminf). The
    run stops at the first n whose raw value meets the bound within slack:
    nothing is left to demonstrate.
    """
    if len(S) == 0:
        raise SpecMismatchError("S must be non-empty")
    g = mu.group
    if S.group != g:
        raise SpecMismatchError("S lives on a different group")
    t_list = S.sorted_elements()
    bound = 2.0 * (1.0 - 1.0 / len(S)) * float(mu.total_mass())

    def best(points):
        return min(points, key=lambda p: p.value)  # first minimum, in t order

    def meets(p):
        return p.value <= bound + slack + p.bracket

    def stop(points):
        return best(points).value <= bound + slack

    rows, budget_flag, stopped = _tv_steps(mu, t_list, nu, n_max, budget, threads, stop)
    mins = [best(r) for r in rows]
    curves = tuple(
        TVCurve(g.element_to_text(t), tuple(r[i] for r in rows), budget_flag, stopped)
        for i, t in enumerate(t_list)
    )
    return TVReport(
        group_text=g.spec_text(),
        mu_desc=_describe_measure(mu),
        S_texts=tuple(g.element_to_text(t) for t in t_list),
        bound=bound,
        slack=slack,
        n_max=n_max,
        budget=budget,
        curves=curves,
        per_n_min=tuple((p.n, p.value, p.bracket) for p in mins),
        verdict="pass" if any(meets(p) for p in mins) else "inconclusive",
        fingerprint=fingerprint,
        seed=seed,
    )


def _describe_measure(mu: SparseMeasure) -> str:
    if len(mu) == 1:
        x = next(iter(mu.as_dict()))
        return f"delta({mu.group.element_to_text(x)})"
    return f"measure({len(mu)} atoms, mass {float(mu.total_mass()):.6g})"


def control_experiment(
    preset: str,
    fingerprint: str = "",
    seed: int | None = None,
    stages: int = 50,
    n_max: int | None = None,
) -> TVReport:
    """Known-answer curves: a free control that must stay high, an amenable
    control that must fall.

    `free-group-srw` (alias `f2-control`): simple random walk on the rank-2
    free group, t = a, exact arithmetic; requires d_1 = 2 and d_10 >= 1.
    `amenable-sanity` (alias `z-amenable`): the constructed measure on the
    integers, t = 1, exact arithmetic; requires d_n < 0.2 by n <= 50.
    """
    name = preset.lower()
    if name in ("free-group-srw", "f2-control"):
        return _control_free(fingerprint, seed, n_max or 10)
    if name in ("amenable-sanity", "z-amenable"):
        return _control_amenable(fingerprint, seed, stages, n_max or 50)
    raise SpecMismatchError(f"unknown control preset {preset!r}")


def _control_report(
    nu: SparseMeasure,
    t,
    n_max: int,
    slack: float,
    passes,
    floor: str,
    fingerprint: str,
    seed: int | None,
    stop_below: float | None = None,
) -> TVReport:
    """The one-curve report of a control: d_n(t) from delta(e), judged by `passes({n: d_n})`."""
    g = nu.group
    curve = tv_curve(delta(g, mode="exact"), t, nu, n_max=n_max, stop_below=stop_below)
    return TVReport(
        group_text=g.spec_text(),
        mu_desc="delta(e)",
        S_texts=(g.element_to_text(t),),
        bound=0.0,
        slack=slack,
        n_max=n_max,
        budget=None,
        curves=(curve,),
        per_n_min=tuple((p.n, p.value, p.bracket) for p in curve.points),
        verdict="pass" if passes({p.n: p.value for p in curve.points}) else "fail",
        control_floor=floor,
        fingerprint=fingerprint,
        seed=seed,
    )


def _control_free(fingerprint: str, seed: int | None, n_max: int) -> TVReport:
    from groupwalk.groups import FreeGroup

    F2 = FreeGroup(2)
    nu = uniform(GSet(F2, frozenset([(1,), (-1,), (2,), (-2,)])), mode="exact")
    return _control_report(
        nu, (1,), n_max, 0.0,
        lambda d: d[1] == 2.0 and d[n_max] >= 1.0,
        f"d_1 = 2 and d_{n_max} >= 1.0 (free walk must stay far)",
        fingerprint, seed,
    )


def _control_amenable(
    fingerprint: str, seed: int | None, stages: int, n_max: int
) -> TVReport:
    from groupwalk.construction import build_measure
    from groupwalk.presets import preset_state

    st = preset_state("z-amenable", seed=seed if seed is not None else 20260813, stages=stages)
    return _control_report(
        build_measure(st, mode="exact"), (1,), n_max, 0.2,
        lambda d: min(d.values()) < 0.2,
        f"d_n < 0.2 for some n <= {n_max} (amenable walk must mix)",
        fingerprint, seed, stop_below=0.2 - 1e-12,
    )
