#!/usr/bin/env python3
"""How the stage budget k shapes the TV curve on F2 x Z.

For each k, builds nu_k and reports the first n where d_n(t=z) drops under
the threshold, plus the tail deficit 1/(k+1) that bounds the walk's
truncation error. Output: an aligned table on stdout and optionally a CSV.
"""

import argparse
import sys

from groupwalk import build_measure, delta, tv_curve
from groupwalk.config import RunConfig
from groupwalk.presets import preset_state


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depths", type=int, nargs="+", default=[4, 8, 16, 32])
    ap.add_argument("--seed", type=int, default=RunConfig.seed)
    ap.add_argument("--threshold", type=float, default=0.5)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument("--budget", type=int, default=2_000_000)
    ap.add_argument("--csv", help="optional output file")
    args = ap.parse_args(argv)

    rows = []
    print(f"{'k':>4} {'deficit':>9} {'first n<=thr':>12} {'d at stop':>10} {'d at last':>10}")
    for k in args.depths:
        state = preset_state("f2xz", seed=args.seed, stages=k)
        nu = build_measure(state, mode="float")
        t = ((), (1,))
        curve = tv_curve(
            delta(state.group), t, nu,
            n_max=args.n_max, budget=args.budget, stop_below=args.threshold,
        )
        hit = next((p for p in curve.points if p.value <= args.threshold), None)
        last = curve.points[-1]
        deficit = 1.0 / (k + 1)
        rows.append((k, deficit, hit.n if hit else -1, hit.value if hit else float("nan"), last.value))
        print(
            f"{k:>4} {deficit:>9.4f} {rows[-1][2]:>12} "
            f"{rows[-1][3]:>10.4f} {last.value:>10.4f}"
        )
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("k,deficit,first_n,d_at_stop,d_at_last\n")
            for r in rows:
                fh.write(",".join(repr(v) for v in r) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
