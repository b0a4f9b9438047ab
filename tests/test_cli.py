import hashlib
import json

import pytest

from groupwalk import measures
from groupwalk.cli import main
from groupwalk.config import RunConfig, parse_config_text
from groupwalk.construction import build_measure, run_construction
from groupwalk.diagnostics import control_experiment
from groupwalk.errors import SpecMismatchError
from groupwalk.measures import SparseMeasure
from groupwalk.presets import initial_state, preset_state


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
    # only budget_atoms reads `none`, though stages is optional too
    with pytest.raises(SpecMismatchError, match="stages expects an integer"):
        parse_config_text("stages = none\npreset = f2xz")
    with pytest.raises(SpecMismatchError, match="slack expects a number"):
        parse_config_text("slack = x\npreset = f2xz")
    with pytest.raises(SpecMismatchError):
        parse_config_text("")  # neither preset nor group
    with pytest.raises(SpecMismatchError):
        parse_config_text("preset = f2xz\ncertificate_radius = 3")  # a removed key


def test_config_layers_flags_over_file_over_defaults():
    cfg = parse_config_text("preset = f2xz\nstages = 3\nslack = 0.25", {"stages": 50, "n_max": 9}, n_max=4)
    assert (cfg.stages, cfg.n_max, cfg.slack) == (3, 4, 0.25)
    # the defaults beat the preset's own stage count
    assert parse_config_text("preset = f2xz", {"stages": 50}).resolved().stages == 50


@pytest.mark.parametrize(
    "line, value",
    [("budget_atoms = none", None), ("budget_atoms = 2_000", 2000), ("eps = 0.5", 0.5), ("mode = exact", "exact")],
)
def test_config_values_take_their_field_types(line, value):
    key = line.split()[0]
    assert getattr(parse_config_text(f"preset = f2xz\n{line}"), key) == value


def test_preset_resolution():
    cfg = parse_config_text("preset = f2xz").resolved()
    assert cfg.group == "product(free(2), free-abelian(1))"
    assert cfg.catalogue == ((("(e|(1))",), "center"),)
    assert cfg.stages == 32
    # the preset's stage count applies unless the config names its own
    assert parse_config_text("", preset="z-amenable").resolved().stages == 50
    assert parse_config_text("", preset="z-amenable", stages=7).resolved().stages == 7
    assert parse_config_text("group = free(2)").resolved().stages == 32


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_config_accepts_seeds_at_both_ends_of_the_range(seed):
    assert RunConfig(preset="f2xz", seed=seed).seed == seed


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seeds_outside_64_bits_are_config_errors(seed, tmp_path, capsys):
    # `derive` keys the streams by the seed's low 64 bits, so 2^64 would run
    # seed 0's streams under another fingerprint, and -1 those of 2^64 - 1
    with pytest.raises(SpecMismatchError, match="seed"):
        RunConfig(preset="f2xz", seed=int(seed))
    rc = main(["construct", "--preset", "f2xz", "--stages", "1", "--seed", seed, "--out", str(tmp_path)])
    assert rc == 1
    assert "error: seed must be in [0, 2^64)" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "flags, edit, message",
    [
        (["--seed", "2"], None, "checkpoint catalogue"),
        (["--stages", "3"], None, "checkpoint has 5 stages, more than the 3 configured"),
        (["--config", "catalogue.cfg"], None, "checkpoint catalogue"),
        ([], lambda st: st.update(alpha="geometric"), "checkpoint alpha geometric"),
        ([], lambda st: st.update(product_cap=7), "checkpoint product_cap 7"),
        ([], lambda st: st.pop("catalogue"), "checkpoint has no 'catalogue' key"),
    ],
    ids=["seed", "more-stages", "catalogue-entries", "alpha", "product-cap", "missing-key"],
)
def test_resume_refuses_a_checkpoint_of_another_construction(tmp_path, capsys, flags, edit, message):
    # a 5-stage, seed-1 checkpoint; each case differs from it in one way
    base = ["construct", "--preset", "f2xz"]
    assert main(base + ["--stages", "5", "--seed", "1", "--out", str(tmp_path / "p5")]) == 0
    ckpt = tmp_path / "p5" / "state.json"
    if edit is not None:
        doc = json.loads(ckpt.read_text())
        edit(doc["state"])
        ckpt = tmp_path / "edited.json"
        ckpt.write_text(json.dumps(doc))
    (tmp_path / "catalogue.cfg").write_text("catalogue = (e|(2)) @ center\n")
    flags = [str(tmp_path / f) if f.endswith(".cfg") else f for f in flags]
    args = ["--seed", "1", "--stages", "6"]
    capsys.readouterr()
    rc = main(base + args + flags + ["--resume", str(ckpt), "--out", str(tmp_path / "p6")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ") and message in err
    assert not (tmp_path / "p6").exists()


def _forged_B(doc):
    """The 2-stage seed-1 run whose R_1 is (e|(5)), under the preset's catalogue."""
    cfg = parse_config_text("catalogue = (e|(5)) @ center\n", preset="f2xz", seed=1).resolved()
    forged = run_construction(initial_state(cfg), 2).to_dict()
    assert sorted(forged["records"][0]["B"]) == ["(e|(-5))", "(e|(5))"]
    forged["catalogue"] = doc["state"]["catalogue"]
    doc["state"] = forged
    return doc


def _all_truncated(doc):
    for r in doc["state"]["records"]:
        r["truncated"] = True
    doc["state"]["A_truncated"] = True
    return doc


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["state"].update(records=5) or doc,
        lambda doc: doc["state"]["records"][0].update(B=7) or doc,
        # a renumbered stage would weight its atoms with another alpha_i
        lambda doc: doc["state"]["records"][0].update(i=2) or doc,
        lambda doc: [doc],
        # each value below is one the stage rule never builds from B
        lambda doc: doc["state"]["records"][0].update(defect=-7) or doc,
        lambda doc: doc["state"]["records"][0].update(truncated="no") or doc,
        lambda doc: doc["state"]["records"][0].update(entry=5) or doc,
        lambda doc: doc["state"]["records"][0].update(c="(a|(0))") or doc,
        # |B F \ F| = 2 >= |F| for this F
        lambda doc: doc["state"]["records"][0].update(F=["(e|(0))"]) or doc,
        # a whole consistent construction, of another R_1, is not this one
        _forged_B,
        _all_truncated,
        lambda doc: doc["state"]["catalogue"]["entries"][0].update(radius=3) or doc,
        lambda doc: doc["state"].update(A=doc["state"]["A"][:-1]) or doc,
    ],
    ids=[
        "records-not-a-list", "B-not-a-list", "stage-renumbered", "not-an-object",
        "defect", "truncated-not-a-bool", "entry", "c", "F",
        "forged-B", "all-truncated", "entry-radius", "A",
    ],
)
def test_resume_refuses_a_malformed_checkpoint(tmp_path, capsys, edit):
    base = ["construct", "--preset", "f2xz", "--seed", "1"]
    assert main(base + ["--stages", "2", "--out", str(tmp_path / "p2")]) == 0
    doc = json.loads((tmp_path / "p2" / "state.json").read_text())
    ckpt = tmp_path / "malformed.json"
    ckpt.write_text(json.dumps(edit(doc)))
    capsys.readouterr()
    rc = main(base + ["--stages", "3", "--resume", str(ckpt), "--out", str(tmp_path / "p3")])
    err = capsys.readouterr().err
    # the refusal names what differs, never printing the records or A lists
    assert rc == 1 and err.startswith("error: ") and "(e|(0))" not in err
    assert not (tmp_path / "p3").exists()


def test_folner_command(capsys):
    # the rank-1 free group's family is the interval [-m, m], as on Z
    for group, b, ends in (("free-abelian(1)", "(1) (-1)", ["(-3)", "(3)"]), ("free(1)", "a A", ["AAA", "aaa"])):
        rc = main(["folner", "--group", group, "--embedding", "whole", "--b", b, "--eps", "1/3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == 7
        assert set(ends) <= set(doc["F"])


def test_certify_command(tmp_path, capsys):
    rc = main(["certify", "--preset", "f2xz", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "H=center: pass\n" in out
    doc = json.loads((tmp_path / "certificates.json").read_text())
    assert doc["certificates"][0]["verdict"] == "pass"
    assert "fingerprint" in doc


def test_certify_refuted_entry_exits_1(tmp_path, capsys):
    # (a|(0)) lies outside the center of F2 x Z; (e|(1)) lies in it
    cfg = tmp_path / "refuted.cfg"
    cfg.write_text(
        "group = product(free(2),free-abelian(1))\n"
        "catalogue = (a|(0)) @ center; (e|(1)) @ center\n"
    )
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "H=center: refuted\n" in capsys.readouterr().out
    certs = json.loads((tmp_path / "out" / "certificates.json").read_text())["certificates"]
    assert [c["verdict"] for c in certs] == ["refuted", "pass"]
    for c in certs:
        assert sorted(c) == ["S", "group", "subgroup", "verdict"]
        assert c["group"] == "product(free(2),free-abelian(1))" and c["subgroup"] == "center"
    assert [c["S"] for c in certs] == [["(a|(0))"], ["(e|(1))"]]


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
            "--seed",
            "9",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = (tmp_path / "tv-curve.csv").read_text().strip().splitlines()
    # the csv's first line and the json's keys name the config and seed that ran
    fp = parse_config_text("", preset="z-amenable", stages=20, n_max=8, seed=9).resolved().fingerprint()
    assert rows[0] == f"# fingerprint={fp} seed=9"
    assert rows[1] == "t,n,value,bracket"
    # every n up to n_max, though d_n meets the report's bound at n = 2
    assert [r.split(",")[1] for r in rows[2:]] == [str(n) for n in range(9)]
    # d_0 = 2 for a point mass against its translate
    assert rows[2].split(",")[2] == "2.0"
    doc = json.loads((tmp_path / "tv-curve.json").read_text())
    assert (doc["fingerprint"], doc["seed"]) == (fp, 9)


def test_refused_convolution_ends_every_curve_at_the_last_step(tmp_path, monkeypatch, capsys):
    # a pair limit of |nu| lets step 1 (|delta| x |nu| pairs) run and refuses step 2
    nu = build_measure(preset_state("f2xz", seed=RunConfig.seed, stages=4), mode="float")
    monkeypatch.setattr(measures, "_PAIR_LIMIT", len(nu))
    argv = ["tv-curve", "--preset", "f2xz", "--stages", "4", "--n-max", "5", "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "tv-curve.json").read_text())
    assert doc["curves"]
    for c in doc["curves"]:
        assert c["budget_flag"] is True and not c["stopped_early"]
        assert [p[0] for p in c["points"]] == [0, 1]
    assert [r[0] for r in doc["per_n_min"]] == [0, 1]


def test_control_command(tmp_path):
    rc = main(["control", "free-group-srw", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "control.json").read_text())
    assert doc["verdict"] == "pass"
    rows = (tmp_path / "control.csv").read_text().strip().splitlines()
    # both artifacts carry the control's pinned fingerprint (see FINGERPRINTS)
    assert rows[0] == f"# fingerprint=a784dcdfd026ce2f seed={RunConfig.seed}"
    assert (doc["fingerprint"], doc["seed"]) == ("a784dcdfd026ce2f", RunConfig.seed)
    assert rows[1] == "t,n,value,bracket"
    assert rows[2].startswith("a,0,2.0")


def test_control_fingerprints_what_it_runs(tmp_path, capsys):
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
    # the control always runs exact, so that is what it fingerprints:
    # --mode exact writes the same bytes, fingerprint line included
    exact = tmp_path / "free3-exact"
    assert main(["control", "free-group-srw", "--n-max", "3", "--mode", "exact", "--out", str(exact)]) == 0
    assert (exact / "control.csv").read_text() == (out / "control.csv").read_text()
    # and float mode, from the flag or the config file, is refused
    cfg = tmp_path / "float.cfg"
    cfg.write_text("group = free(2)\nmode = float\n")
    refused = tmp_path / "float"
    for extra in (["--mode", "float"], ["--config", str(cfg)]):
        assert main(["control", "f2-control", "--n-max", "3", "--out", str(refused)] + extra) == 1
    assert capsys.readouterr().err.count("--mode float") == 2
    assert not (refused / "control.csv").exists()
    # a flag beats the config file
    flag = ["--config", str(cfg), "--mode", "exact", "--out", str(refused)]
    assert main(["control", "f2-control", "--n-max", "3"] + flag) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["control", "free-group-srw", "--n-max", "3", "--group", "free(3)"],
        ["control", "amenable-sanity", "--preset", "f2xz"],
    ],
    ids=["group-flag", "preset"],
)
def test_control_refuses_another_group(tmp_path, capsys, argv):
    # a control runs only its own group, so a config naming another would
    # fingerprint a run that never happened
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert "error: control " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (argv, artifact, its fingerprint); a fingerprint names a run across
# versions, so however the settings are merged these values must not move
FINGERPRINTS = [
    (["control", "free-group-srw"], "control.json", "a784dcdfd026ce2f"),
    (["control", "f2-control", "--n-max", "3"], "control.json", "59310248120c88e5"),
    (["control", "--preset", "f2-control"], "control.json", "e1342b183260b855"),
    (["control", "amenable-sanity", "--config", "z.cfg"], "control.json", "e4766d764a150110"),
    (
        ["couple", "--preset", "f2xz", "--stages", "8", "--trials", "400", "--horizon", "1024", "--eps", "0.5"],
        "couple.json",
        "5ddb7c92ac93cfa8",
    ),
    (
        ["folner", "--preset", "f2xz", "--embedding", "center", "--b", "(e|(1))", "--eps", "1/3"],
        "folner.json",
        "4e4a7ac43ba97cf5",
    ),
]


@pytest.mark.parametrize(
    "argv, artifact, fingerprint",
    FINGERPRINTS,
    ids=["free-control", "free-control-n3", "preset-control", "amenable-control-file", "couple-eps", "folner-eps"],
)
def test_fingerprints_keep_their_values(tmp_path, capsys, argv, artifact, fingerprint):
    (tmp_path / "z.cfg").write_text("stages = 10\nn_max = 4\n")
    argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
    main(argv + ["--out", str(tmp_path / "out")])  # ten amenable stages fail their control: exit 1
    capsys.readouterr()
    assert json.loads((tmp_path / "out" / artifact).read_text())["fingerprint"] == fingerprint


@pytest.mark.parametrize("command", ["construct", "report", "couple"])
def test_control_preset_is_not_a_construction(command, tmp_path, capsys):
    # f2-control names a control walk, not a catalogue to construct
    assert main([command, "--preset", "f2-control", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "preset 'f2-control' has no catalogue" in err
    assert "groupwalk control f2-control" in err


def test_control_rejects_a_zero_horizon(tmp_path, capsys):
    # n_max = 0 is a bad config value, not a request for the default horizon
    assert main(["control", "f2-control", "--n-max", "0", "--out", str(tmp_path)]) == 1
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("group = free(2)\nn_max = 0\n")
    assert main(["control", "f2-control", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.count("n_max must be >= 1") == 2
    assert not (tmp_path / "control.csv").exists()
    with pytest.raises(SpecMismatchError):
        control_experiment("f2-control", n_max=0)


def test_control_reads_n_max_and_stages_from_config(tmp_path):
    cfg = tmp_path / "free.cfg"
    cfg.write_text("group = free(2)\nn_max = 3\n")
    out = tmp_path / "file"
    assert main(["control", "free-group-srw", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "control.csv").read_text().strip().splitlines()
    assert [r.split(",")[1] for r in rows[2:]] == ["0", "1", "2", "3"]
    # a command-line flag still wins over the file
    out = tmp_path / "flag"
    main(["control", "free-group-srw", "--config", str(cfg), "--n-max", "2", "--out", str(out)])
    rows = (out / "control.csv").read_text().strip().splitlines()
    assert [r.split(",")[1] for r in rows[2:]] == ["0", "1", "2"]
    # stages from the file run, and fingerprint, like the same flag
    cfg = tmp_path / "z.cfg"
    cfg.write_text("stages = 10\nn_max = 4\n")
    runs = []
    for name, extra in (("zfile", ["--config", str(cfg)]), ("zflag", ["--stages", "10", "--n-max", "4"])):
        main(["control", "amenable-sanity", "--out", str(tmp_path / name)] + extra)
        runs.append((tmp_path / name / "control.csv").read_text())
    assert runs[0] == runs[1]


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


def test_folner_zero_denominator_is_a_usage_error(capsys):
    argv = ["folner", "--group", "free-abelian(1)", "--embedding", "whole", "--eps", "1/0"]
    assert main(argv) == 1
    assert "--eps" in capsys.readouterr().err


def test_threads_below_1_is_a_config_error(tmp_path, capsys):
    # --threads has no effect, but its value is still checked
    assert main(["construct", "--preset", "f2xz", "--stages", "2", "--threads", "0", "--out", str(tmp_path)]) == 1
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("preset = f2xz\nstages = 2\nthreads = 0\n")
    assert main(["construct", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.count("threads must be >= 1") == 2
    assert not (tmp_path / "measure.txt").exists()


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


def test_accumulator_cap_exits_2(tmp_path, monkeypatch, capsys):
    # a 16-byte cap holds one row, so the first convolution step passes it
    monkeypatch.setattr(measures, "_ACC_BYTES", 16)
    rc = main(["report", "--preset", "f2xz", "--stages", "4", "--n-max", "2", "--out", str(tmp_path)])
    assert rc == 2
    assert "accumulator cap _ACC_BYTES = 16 bytes" in capsys.readouterr().err


def test_zero_budget_is_a_config_error(tmp_path, capsys):
    # a budget below 1 is a bad config value, refused before any stage is built
    rc = main(["report", "--preset", "f2xz", "--stages", "2", "--budget-atoms", "0", "--out", str(tmp_path)])
    assert rc == 1
    assert "budget_atoms must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_zero_product_cap_is_a_config_error(tmp_path, capsys):
    # refused whether or not the catalogue would ever read the cap: f2xz's is
    # central and never conjugates, the lamplighter's conjugates at stage 1
    configs = (
        "preset = f2xz\nstages = 2\nproduct_cap = 0\n",
        "group = lamplighter(2)\ncatalogue = ({1}|0) @ lamps\nstages = 2\nproduct_cap = 0\n",
    )
    for i, text in enumerate(configs):
        cfg = tmp_path / f"cap{i}.cfg"
        cfg.write_text(text)
        out = tmp_path / f"out{i}"
        assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 1
        assert not (out / "measure.txt").exists()
    assert capsys.readouterr().err.count("product_cap must be >= 1, got 0") == 2


# (argv, artifact, the line before its data rows, sha256 of those rows); the
# digests were taken before exact measures moved onto the packed pool, and
# the exact kernel must keep every byte
EXACT_ROWS = [
    (
        ["control", "free-group-srw"], "control.csv", "t,n,",
        "18fa6cbda63b614718461632db3ca3204b13aff9c818f0074415a0fd2086365d",
    ),
    (
        ["control", "amenable-sanity"], "control.csv", "t,n,",
        "8c203b9d4b008601e90664e889e50315f09005b09ad136e56ad8897f812510f2",
    ),
    (
        ["construct", "--preset", "z-amenable", "--mode", "exact"], "measure.txt", "atoms ",
        "eeac55b4e265e1717bfab166ca33e43c7faa8f5485e342d73140bed9fa8bab5a",
    ),
]


@pytest.mark.parametrize(
    "argv, artifact, header, digest", EXACT_ROWS, ids=["free-control", "amenable-control", "z-amenable"]
)
def test_exact_artifact_rows_keep_their_bytes(tmp_path, capsys, argv, artifact, header, digest):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / artifact).read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header)) + 1
    assert hashlib.sha256(("\n".join(lines[start:]) + "\n").encode()).hexdigest() == digest
