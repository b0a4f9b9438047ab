#!/usr/bin/env python3
"""Benchmark of the groupwalk package in ../src, one workload per process.

    python3 perfbench/run.py --workload tv-f2xz --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A run times set-up several times: ``setup_s`` is the median import time in a
fresh interpreter plus the median input preparation. It then runs one
untimed warm-up repetition (its first large allocations make it ~10% slower
on couple-f2xz) and repeats the workload until the next repetition would pass
``--seconds``, warm-up included. Every repetition's output is checked.
Untraced times are rescaled to a fixed host speed, sampled with a reference
kernel while they run (``hostspeed.py``); the raw times are in the record.
``--trace 1`` alternates untraced and traced repetitions after the warm-up,
reports the per-layer numbers and the tracing overhead, and writes the spans
to ``perfbench/out/``.

The second-to-last line of standard output is a ``{"record": ...}`` object
with the environment stamp, the sizes, every repetition's time and the
metrics ``pairs_per_s`` or ``cells_per_s`` and ``failed_frac``. The
last line is ``{"correct", "attempted", "failed", "metrics"}``. Each workload
is single-threaded (``threads=1``) and nothing about the machine is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5
# set-up imports, timed in a fresh interpreter each time, with the host speed sampled
IMPORT_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import hostspeed\n"
    "with hostspeed.HostSpeed() as speed:\n"
    "    mark = speed.mark()\n"
    "    sys.path.insert(0, sys.argv[1])\n"
    "    import numpy, groupwalk, groupwalk.presets, groupwalk.cli\n"
    "    print(*speed.since(mark))\n"
)
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("bracket_final", "mass"),
    ("ok_frac", "ratio"),
]


@dataclass
class Rep:
    wall: float
    scaled: float  # wall rescaled to the reference host speed; == wall when not sampled
    facts: dict | None
    failures: list[str]
    rows: list


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="tv-f2xz, couple-f2xz, exact-controls, lamplighter-construct, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "acceptance", "smoke"), default="bench")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def env_stamp(args, sizes):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "groupwalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "size": args.size,
        "sizes": sizes,
        "seconds": args.seconds,
    }


def one_rep(wl, inp, sizes, seed, ledger, tr=None, speed=None, sensitivity=1.0) -> Rep:
    ledger.rows.clear()
    t0 = time.perf_counter()
    mark = speed.mark() if speed else None
    try:
        if tr is None:
            raw = wl.run(inp, sizes, seed)
        else:
            with tr.installed(), tr.span("bench.rep"):
                raw = wl.run(inp, sizes, seed)
        facts = wl.summarize(inp, sizes, raw, list(ledger.rows))
        failures = wl.check(sizes, seed, facts)
    except Exception as exc:  # a raising workload is one failed operation; keep measuring
        traceback.print_exc(file=sys.stderr)
        facts, failures = None, [f"error: {type(exc).__name__}: {exc}"]
    if speed:
        wall, scaled = speed.since(mark, sensitivity)
    else:
        wall = scaled = time.perf_counter() - t0
    return Rep(wall, scaled, facts, failures, list(ledger.rows))


def repeat(fn, seconds):
    """Call fn (returning its wall time) while the next call should still fit."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(fn())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            return walls


def time_imports():
    """(raw, scaled) seconds of each import probe, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True,
        )
        raw, scaled = map(float, proc.stdout.split())
        out.append((raw, scaled))
    return out


def untraced(args, wl, sizes, ledger):
    from hostspeed import HostSpeed
    from workloads import HOST_SENSITIVITY, WORK_UNIT

    imports = time_imports()
    prep = []
    with HostSpeed() as speed:
        for _ in range(SETUP_REPS):
            mark = speed.mark()
            inp = wl.setup(args.seed, sizes)
            prep.append(speed.since(mark))
        sens = HOST_SENSITIVITY[wl.name]
        warm = one_rep(wl, inp, sizes, args.seed, ledger, speed=speed, sensitivity=sens)
        reps = []

        def fn():
            reps.append(one_rep(wl, inp, sizes, args.seed, ledger, speed=speed, sensitivity=sens))
            return reps[-1].wall

        repeat(fn, args.seconds - warm.wall)
    ok = [r for r in reps if not r.failures]
    rate = statistics.median(r.facts["work"] / r.scaled for r in ok) if ok else 0.0
    metrics = {
        "wall_s": statistics.median(r.scaled for r in reps),
        "setup_s": statistics.median(s for _, s in imports) + statistics.median(s for _, s in prep),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_s": rate,
        "bracket_final": ok[-1].facts["bracket_final"] if ok else 0.0,
        "ok_frac": len(ok) / len(reps),
    }
    named = {f"{WORK_UNIT[wl.name]}_per_s": rate, "failed_frac": 1.0 - metrics["ok_frac"]}
    detail = {
        "import_raw_s": [r for r, _ in imports],
        "import_scaled_s": [s for _, s in imports],
        "prep_raw_s": [r for r, _ in prep],
        "prep_scaled_s": [s for _, s in prep],
        "warmup_wall_s": warm.wall,
        "rep_wall_s": [r.wall for r in reps],
        "rep_scaled_s": [r.scaled for r in reps],
        "wall_raw_median_s": statistics.median(r.wall for r in reps),
        "host_samples": len(speed.samples),
    }
    units = dict(END_TO_END) | {"pairs_per_s": "1/s", "cells_per_s": "1/s", "failed_frac": "ratio"}
    return [warm] + reps, metrics, named, detail, units


def traced(args, wl, sizes, ledger):
    import tracer

    setup_tr = tracer.Tracer()
    with setup_tr.installed(), setup_tr.span("bench.setup"):
        inp = wl.setup(args.seed, sizes)
    warm = one_rep(wl, inp, sizes, args.seed, ledger)
    pairs = []

    def fn():
        plain = one_rep(wl, inp, sizes, args.seed, ledger)
        tr = tracer.Tracer()
        rep = one_rep(wl, inp, sizes, args.seed, ledger, tr)
        pairs.append((plain, rep, tr))
        return plain.wall + rep.wall

    repeat(fn, args.seconds - warm.wall)
    per_rep = []
    for _, rep, tr in pairs:
        rep.failures += tracer.check_spans([setup_tr, tr])
        per_rep.append(tracer.layer_metrics([setup_tr, tr], rep.rows))
    units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
    metrics = {
        name: (statistics.median_low if units[name] == "count" else statistics.median)(
            m[name] for m in per_rep
        )
        for name in per_rep[0]
    }
    plain_wall = statistics.median(p.wall for p, _, _ in pairs)
    traced_wall = statistics.median(r.wall for _, r, _ in pairs)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    reps = [warm] + [r for p in pairs for r in p[:2]]
    missing = sorted(set(setup_tr.missing) | {m for _, _, tr in pairs for m in tr.missing})
    if missing:
        print(f"perfbench: not traced (absent from groupwalk): {missing}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{wl.name}-{args.size}-seed{args.seed}.json"
    own, _ = tracer.self_times([setup_tr, pairs[0][2]])
    trace_file.write_text(json.dumps({
        "workload": wl.name,
        "setup": setup_tr.to_json(),
        "reps": [tr.to_json() for _, _, tr in pairs],
        "self_s_first_rep": own,
        "per_layer_by_rep": per_rep,
        "missing": missing,
    }))
    detail = {
        "trace_file": str(trace_file.relative_to(ROOT)),
        "untraced_wall_s": [p.wall for p, _, _ in pairs],
        "traced_wall_s": [r.wall for _, r, _ in pairs],
    }
    return reps, metrics, {}, detail, units


def run_one(args) -> int:
    import groupwalk
    import tracer
    import workloads

    if Path(groupwalk.__file__).resolve().parent != (SRC / "groupwalk").resolve():
        print(f"perfbench: imported groupwalk from {groupwalk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    sizes = workloads.SIZES[args.size][args.workload]
    ledger = tracer.ConvolveLedger()
    ledger.install()
    if args.trace:
        reps, metrics, named, detail, units = traced(args, wl, sizes, ledger)
    else:
        reps, metrics, named, detail, units = untraced(args, wl, sizes, ledger)
    ledger.uninstall()
    failed = [r for r in reps if r.failures]
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "env": env_stamp(args, sizes),
        "attempted": len(reps),
        "failures": sorted({f for r in failed for f in r.failures}),
        "detail": detail,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in (metrics | named).items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS never carries over."""
    import workloads

    rc = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        sys.stdout.flush()
        rc = max(rc, subprocess.run(cmd).returncode)
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "groupwalk" / "__init__.py").is_file():
        print(f"perfbench: no groupwalk package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
