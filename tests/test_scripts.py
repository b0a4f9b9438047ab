"""Smoke runs of the scripts under scripts/, at small sizes."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, argv):
    return runpy.run_path(str(SCRIPTS / name))["run"](argv)


def test_run_flagship(tmp_path, capsys):
    out = tmp_path / "flagship"
    assert _run("run_flagship.py", ["--stages", "8", "--trials", "400", "--out", str(out)]) == 0
    for name in ("measure.txt", "state.json", "certificates.json", "report.csv", "report.json", "couple.json"):
        assert (out / name).is_file(), name
    assert "H=center: pass" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, argv",
    [
        ("sweep_stage_depth.py", ["--depths", "4", "8", "--n-max", "4", "--budget", "20000"]),
        (
            "coupling_diagnostics.py",
            ["--stages", "8", "--samples", "20000", "--trials", "300", "--horizon", "1024", "--eps", "0.5"],
        ),
    ],
    ids=["sweep_stage_depth", "coupling_diagnostics"],
)
def test_script_runs(name, argv, capsys):
    assert _run(name, argv) == 0
    assert capsys.readouterr().out
