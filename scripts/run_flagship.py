#!/usr/bin/env python3
"""End-to-end flagship run on F2 x Z: construct, certify, curve, couple.

Writes every artifact under --out (default results/flagship) and prints a
one-screen summary. Roughly a minute at the default scale.
"""

import argparse
import sys
from pathlib import Path

from groupwalk.cli import main as cli
from groupwalk.config import RunConfig


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=RunConfig.seed)
    ap.add_argument("--stages", type=int, default=32)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--horizon", type=int, default=16_384)
    ap.add_argument("--out", default="results/flagship")
    args = ap.parse_args(argv)

    base = [
        "--preset", "f2xz",
        "--seed", str(args.seed),
        "--stages", str(args.stages),
        "--out", args.out,
    ]
    steps = [
        ("construct", base),
        ("certify", base),
        ("report", base),
        (
            "couple",
            base + ["--trials", str(args.trials), "--horizon", str(args.horizon)],
        ),
    ]
    for cmd, extra in steps:
        print(f"== groupwalk {cmd} ==")
        rc = cli([cmd] + extra)
        if rc != 0:
            print(f"{cmd} exited {rc}", file=sys.stderr)
            return rc
    print(f"\nall artifacts in {Path(args.out).resolve()}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
