#!/usr/bin/env python3
"""Monte Carlo health checks for the coupled increment sampler.

Prints the empirical-vs-true TV gap, color balance with Wilson intervals,
the (K, color) chi-square factorization check, and the decomposition-event
threshold estimate with its hit-probability curve.
"""

import argparse
import sys

from groupwalk import (
    GSet,
    WalkModel,
    build_measure,
    empirical_increment_law,
    estimate_M,
    tv_distance,
)
from groupwalk.config import RunConfig
from groupwalk.presets import preset_state
from groupwalk.walk import coupling_independence


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--stages", type=int, default=32)
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--trials", type=int, default=2_000)
    ap.add_argument("--horizon", type=int, default=8_192)
    ap.add_argument("--eps", type=float, default=0.25)
    ap.add_argument("--warmup", type=int, default=4)
    ap.add_argument("--seed", type=int, default=RunConfig.seed)
    args = ap.parse_args(argv)

    state = preset_state("f2xz", seed=args.seed, stages=args.stages)
    nu = build_measure(state, mode="float")
    model = WalkModel(state)

    emp, stats = empirical_increment_law(model, args.samples, seed=args.seed)
    v, _ = tv_distance(emp, nu)
    deficit = 1.0 / (args.stages + 1)
    print(f"increment law: tv = {v:.5f} (tail deficit {deficit:.5f})")
    for color, rec in stats["colors"].items():
        lo, hi = rec["wilson95"]
        print(f"  {color:>5}: {rec['fraction']:.5f}  wilson95 [{lo:.5f}, {hi:.5f}]")

    chi = coupling_independence(model, args.samples, seed=args.seed)
    print(f"(K, color) chi-square: {chi['chi2']:.2f} on {chi['df']} df "
          f"(critical {chi['critical_0.01']:.2f}) -> "
          f"{'independent' if chi['independent'] else 'DEPENDENT'}")

    S = GSet(state.group, frozenset([state.group.element_from_text("(e|(1))")]))
    rep = estimate_M(
        state, S, N=args.warmup, eps=args.eps,
        trials=args.trials, horizon=args.horizon, seed=args.seed,
    )
    if rep.failed:
        print(f"decomposition event: horizon {args.horizon} exhausted "
              f"(hit {rep.hit_probability:.4f}); raise --horizon")
        return 2
    print(f"decomposition event: M = {rep.M}, hit {rep.hit_probability:.4f}, "
          f"wilson95 [{rep.ci[0]:.4f}, {rep.ci[1]:.4f}]")
    print("  curve:", " ".join(f"{m}:{p:.3f}" for m, p, *_ in rep.curve))
    return 0


if __name__ == "__main__":
    sys.exit(run())
