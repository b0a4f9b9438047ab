import hashlib
import json

import pytest

from groupwalk.cli import main
from groupwalk.config import RunConfig, parse_config_text
from groupwalk.errors import SpecMismatchError
from groupwalk.measures import SparseMeasure


def sha(p):
    return hashlib.sha256(p.read_bytes()).hexdigest()


# -- config layer ------------------------------------------------------------


def test_config_parse_and_fingerprint():
    text = """
    # a comment
    preset = f2xz
    seed = 99
    stages = 4
    threads = 8
    out_dir = somewhere
    """
    cfg = parse_config_text(text)
    assert cfg.preset == "f2xz" and cfg.seed == 99 and cfg.stages == 4
    # threads and out_dir are not part of the identity of a run
    other = parse_config_text(text.replace("8", "2").replace("somewhere", "else"))
    assert cfg.fingerprint() == other.fingerprint()
    changed = parse_config_text(text.replace("seed = 99", "seed = 100"))
    assert cfg.fingerprint() != changed.fingerprint()


def test_config_catalogue_syntax():
    cfg = parse_config_text(
        "group = free-abelian(1)\ncatalogue = (1) (-1) @ whole"
    )
    assert cfg.catalogue == ((("(1)", "(-1)"), "whole"),)


def test_config_rejects_unknown_keys():
    with pytest.raises(SpecMismatchError):
        parse_config_text("preset = f2xz\nbogus = 1")
    with pytest.raises(SpecMismatchError):
        parse_config_text("stages = three\npreset = f2xz")
    with pytest.raises(SpecMismatchError):
        parse_config_text("")  # neither preset nor group
    with pytest.raises(SpecMismatchError):
        parse_config_text("preset = f2xz\ncertificate_radius = 3")  # a removed key


def test_preset_resolution():
    cfg = parse_config_text("preset = f2xz").resolved()
    assert cfg.group == "product(free(2), free-abelian(1))"
    assert cfg.catalogue == ((("(e|(1))",), "center"),)
    assert cfg.stages == 32
    # the preset's stage count applies unless the config names its own
    assert parse_config_text("", preset="z-amenable").resolved().stages == 50
    assert parse_config_text("", preset="z-amenable", stages=7).resolved().stages == 7
    assert parse_config_text("group = free(2)").resolved().stages == 32


# -- commands ----------------------------------------------------------------


def test_construct_writes_deterministic_artifacts(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["construct", "--preset", "f2xz", "--stages", "6", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert sha(out1 / "measure.txt") == sha(out2 / "measure.txt")
    assert sha(out1 / "state.json") == sha(out2 / "state.json")
    text = (out1 / "measure.txt").read_text()
    assert text.startswith("# fingerprint=")
    mu = SparseMeasure.from_text(text)
    assert mu.total_mass() == pytest.approx(6 / 7)


def test_construct_resume_round_trip(tmp_path, capsys):
    base = ["construct", "--preset", "f2xz", "--seed", "5"]
    assert main(base + ["--stages", "4", "--out", str(tmp_path / "p1")]) == 0
    assert main(base + ["--stages", "9", "--out", str(tmp_path / "p3")]) == 0

    # checkpoints from before the catalogue was just (S, H) also carry a
    # null "radius" per entry and a null "weights" on the catalogue
    doc = json.loads((tmp_path / "p1" / "state.json").read_text())
    for e in doc["state"]["catalogue"]["entries"]:
        e["radius"] = None
    doc["state"]["catalogue"]["weights"] = None
    older = tmp_path / "older.json"
    older.write_text(json.dumps(doc))
    for name, ckpt in (("p2", tmp_path / "p1" / "state.json"), ("p4", older)):
        rc = main(base + ["--stages", "9", "--resume", str(ckpt), "--out", str(tmp_path / name)])
        assert rc == 0
        assert sha(tmp_path / name / "measure.txt") == sha(tmp_path / "p3" / "measure.txt")
        assert sha(tmp_path / name / "state.json") == sha(tmp_path / "p3" / "state.json")

    # a weighted schedule must not resume as a uniform one
    doc["state"]["catalogue"]["weights"] = ["3/4", "1/4"]
    older.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(base + ["--stages", "9", "--resume", str(older), "--out", str(tmp_path / "p5")])
    assert rc == 1
    assert "weights" in capsys.readouterr().err


def test_folner_command(capsys):
    rc = main(
        [
            "folner",
            "--group",
            "free-abelian(1)",
            "--embedding",
            "whole",
            "--b",
            "(1) (-1)",
            "--eps",
            "1/3",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 7
    assert "(-3)" in doc["F"] and "(3)" in doc["F"]


def test_certify_command(tmp_path, capsys):
    rc = main(["certify", "--preset", "f2xz", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "H=center: pass\n" in out
    doc = json.loads((tmp_path / "certificates.json").read_text())
    assert doc["certificates"][0]["verdict"] == "pass"
    assert "fingerprint" in doc


def test_report_command_and_exit_codes(tmp_path):
    rc = main(
        [
            "report",
            "--preset",
            "z-amenable",
            "--stages",
            "30",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["verdict"] == "pass"
    # an unreachable bound at horizon 1 is inconclusive -> exit 3
    rc = main(
        [
            "report",
            "--preset",
            "z-amenable",
            "--stages",
            "6",
            "--n-max",
            "1",
            "--slack",
            "0.0",
            "--out",
            str(tmp_path / "inc"),
        ]
    )
    assert rc == 3


def test_tv_curve_command(tmp_path):
    rc = main(
        [
            "tv-curve",
            "--preset",
            "z-amenable",
            "--stages",
            "20",
            "--n-max",
            "8",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = (tmp_path / "tv-curve.csv").read_text().strip().splitlines()
    assert rows[1] == "t,n,value,bracket"
    # d_0 = 2 for a point mass against its translate
    assert rows[2].split(",")[2] == "2.0"
    doc = json.loads((tmp_path / "tv-curve.json").read_text())
    assert doc["fingerprint"] and doc["seed"] is not None


def test_control_command(tmp_path):
    rc = main(["control", "free-group-srw", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "control.json").read_text())
    assert doc["verdict"] == "pass"
    rows = (tmp_path / "control.csv").read_text().strip().splitlines()
    assert rows[1] == "t,n,value,bracket"
    assert rows[2].startswith("a,0,2.0")


def test_control_fingerprints_what_it_runs(tmp_path):
    # the amenable control runs 50 stages and n_max 50 unless told
    # otherwise, so naming either explicitly is the same run
    fps = set()
    for name, extra in (("default", []), ("stages", ["--stages", "50"]), ("n", ["--n-max", "50"])):
        assert main(["control", "amenable-sanity", "--out", str(tmp_path / name)] + extra) == 0
        fps.add(json.loads((tmp_path / name / "control.json").read_text())["fingerprint"])
    assert len(fps) == 1
    # --n-max reaches the control: the free walk stops at n = 3
    out = tmp_path / "free3"
    assert main(["control", "free-group-srw", "--n-max", "3", "--out", str(out)]) == 0
    rows = (out / "control.csv").read_text().strip().splitlines()
    assert [r.split(",")[1] for r in rows[2:]] == ["0", "1", "2", "3"]


def test_couple_command(tmp_path):
    rc = main(
        [
            "couple",
            "--preset",
            "f2xz",
            "--stages",
            "10",
            "--seed",
            "3",
            "--trials",
            "500",
            "--horizon",
            "2048",
            "--eps",
            "0.3",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "couple.json").read_text())
    assert doc["M"] is not None and doc["ci"][0] >= 0.7
    assert doc["fingerprint"]
    # horizon too small for the target -> budget exit code
    rc = main(
        [
            "couple",
            "--preset",
            "f2xz",
            "--stages",
            "10",
            "--seed",
            "3",
            "--trials",
            "200",
            "--horizon",
            "16",
            "--out",
            str(tmp_path / "tiny"),
        ]
    )
    assert rc == 2


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1
    assert main(["report", "--group", "free(2)"]) == 1  # no catalogue
    assert main(["construct", "--preset", "no-such-preset"]) == 1
    assert main(["control", "unknown-control"]) == 1
    capsys.readouterr()


def test_threads_do_not_change_artifacts(tmp_path):
    outs = []
    for th in ("1", "4"):
        out = tmp_path / f"t{th}"
        rc = main(
            [
                "report",
                "--preset",
                "f2xz",
                "--stages",
                "12",
                "--seed",
                "2",
                "--threads",
                th,
                "--budget-atoms",
                "20000",
                "--n-max",
                "4",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(out)
    assert sha(outs[0] / "report.csv") == sha(outs[1] / "report.csv")
    assert sha(outs[0] / "report.json") == sha(outs[1] / "report.json")
