"""Smoke tests of the benchmark itself: `python3 -m pytest perfbench -q`.

They run every workload at the smoke size, traced and untraced, and check
that each metric in BENCHMARK.json comes out with its unit; that every
output check rejects a tampered result; that host-speed sampling rescales
times by the reference kernel; and that the benchmark refuses to report
anything without the package sources next to it.
"""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = workloads.ACCEPTANCE_SEED


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_lists_the_workloads_and_metrics_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.LAYER_METRICS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_no_result_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "tv-f2xz", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _facts(name):
    wl = workloads.WORKLOADS[name]
    sizes = workloads.SIZES["smoke"][name]
    ledger = tracer.ConvolveLedger()
    ledger.install()
    try:
        inp = wl.setup(SEED, sizes)
        raw = wl.run(inp, sizes, SEED)
        facts = wl.summarize(inp, sizes, raw, list(ledger.rows))
    finally:
        ledger.uninstall()
    assert wl.check(sizes, SEED, facts) == []
    return wl, sizes, facts


def _last(seq, fn):
    return seq[:-1] + [fn(seq[-1])]


TAMPER = {
    "tv-f2xz": {
        "steps": lambda f, s: f.update(points=f["points"][:-1]),
        "contraction": lambda f, s: f.update(points=_last(f["points"], lambda p: (p[0], p[1] + 1.0, p[2]))),
        "mass": lambda f, s: f.update(steps=_last(f["steps"], lambda r: (r[0], r[1], r[2] - 0.01, r[3]))),
        "budget": lambda f, s: f.update(steps=_last(f["steps"], lambda r: (r[0], s["budget"] + 1, r[2], r[3]))),
    },
    "couple-f2xz": {
        "M": lambda f, s: f.update(M=None, failed=True),
        "wilson": lambda f, s: f.update(ci=(0.1, 0.2)),
        "monotone": lambda f, s: f.update(curve=[0.5, 0.4]),
        "M_seed": lambda f, s: s.update(expect_M=f["M"] + 1),
        "increment_tv": lambda f, s: f.update(inc_tv=1.0),
    },
    "exact-controls": {
        "free_verdict": lambda f, s: f.update(free_verdict="fail"),
        "amenable_verdict": lambda f, s: f.update(amenable_verdict="fail"),
        "free_d1": lambda f, s: f["free_d"].update({1: 1.5}),
        "free_dn": lambda f, s: f["free_d"].update({s["free_n_max"]: 0.5}),
    },
    "lamplighter-construct": {
        "stages": lambda f, s: s.update(stages=s["stages"] + 1),
        "total_mass": lambda f, s: f.update(total=f["total"] + Fraction(1, 1000)),
        "symmetry": lambda f, s: f.update(asymmetric_atoms=1),
        "folner": lambda f, s: f.update(folner=_last(f["folner"], lambda r: (r[0], r[2], r[2]))),
        "tail": lambda f, s: f.update(tail_points=f["tail_points"][:-1]),
    },
}


@pytest.mark.parametrize("name", list(TAMPER))
def test_every_output_check_can_fail(name):
    wl, sizes, facts = _facts(name)
    for label, tamper in TAMPER[name].items():
        f = _copy(facts)
        s = dict(sizes)
        tamper(f, s)
        failures = wl.check(s, SEED, f)
        assert any(x.startswith(label + ":") for x in failures), (label, failures)


def _copy(facts):
    return {k: (dict(v) if isinstance(v, dict) else list(v) if isinstance(v, list) else v)
            for k, v in facts.items()}


def test_span_check_catches_a_child_outside_its_parent():
    tr = tracer.Tracer()
    tr.spans = [["bench.rep", 0.0, 1.0, -1], ["measures.convolve", 0.5, 1.5, 0]]
    assert any(x.startswith("spans:") for x in tracer.check_spans([tr]))
    tr.spans[1][2] = 0.9
    assert tracer.check_spans([tr]) == []


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_host_speed_rescales_by_the_reference_kernel():
    # a kernel that takes at least twice REF_S stands for a host at half speed
    with hostspeed.HostSpeed(kernel=lambda: _spin(2 * hostspeed.REF_S), period=0.01) as speed:
        mark = speed.mark()
        _spin(0.2)
        raw, scaled = speed.since(mark)
        raw_again, unscaled = speed.since(mark, sensitivity=0.0)
    assert len(speed.samples) > 5
    assert 0.1 < raw < 0.2  # the samples taken during the interval are left out
    assert 0 < scaled <= raw / 2
    assert unscaled == raw_again >= raw
