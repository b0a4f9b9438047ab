"""Command-line front end.

Subcommands: construct, folner, certify, tv-curve, report, control, couple.
Exit codes: 0 success, 1 usage/config error (including refuted certificates
and failed controls), 2 budget exhaustion, 3 INCONCLUSIVE verdict.

Every artifact embeds the config fingerprint and seed, carries no
timestamps, and is byte-identical for identical config+seed regardless of
--threads.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from groupwalk.amenable import AmenableSubgroup, certify_visibility, folner_set
from groupwalk.config import RunConfig, config_file_values, load_config, parse_config_text
from groupwalk.construction import ConstructionState, build_measure, run_construction
from groupwalk.diagnostics import TVReport, control_experiment, nondisjointness_report
from groupwalk.errors import BudgetError, GroupwalkError, SpecMismatchError
from groupwalk.groups import GSet, parse_group
from groupwalk.measures import delta
from groupwalk.presets import CONTROL_ALIASES, fresh_state
from groupwalk.walk import estimate_M

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INCONCLUSIVE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--preset", help="preset name (f2xz, z-amenable)")
    p.add_argument("--group", help="group spec text, e.g. 'free(2)'")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--stages", type=int)
    p.add_argument("--budget-atoms", dest="budget_atoms", type=int)
    p.add_argument("--mode", choices=("exact", "float"))
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--warmup", type=int, help="decomposition warm-up bound N")
    p.add_argument("--slack", type=float)


_COMMON_KEYS = (
    "preset",
    "group",
    "seed",
    "threads",
    "stages",
    "budget_atoms",
    "mode",
    "out_dir",
    "n_max",
    "trials",
    "horizon",
    "warmup",
    "slack",
)


def _config_from(args, **extra) -> RunConfig:
    overrides = {k: getattr(args, k, None) for k in _COMMON_KEYS}
    overrides.update(extra)
    if args.config:
        cfg = load_config(args.config, **overrides)
    else:
        cfg = parse_config_text("", **overrides)
    return cfg.resolved()


def _out_path(cfg: RunConfig, name: str) -> Path:
    d = Path(cfg.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d / name


def _build_state(cfg: RunConfig, resume: str | None = None) -> ConstructionState:
    if not resume:
        return fresh_state(cfg)
    payload = json.loads(Path(resume).read_text())
    state = ConstructionState.from_json(json.dumps(payload.get("state", payload)))
    if state.group.spec_text() != parse_group(cfg.group).spec_text():
        raise SpecMismatchError("checkpoint group differs from configured group")
    return run_construction(state, cfg.stages)


def _write(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


# -- subcommands -----------------------------------------------------------


def cmd_construct(args) -> int:
    cfg = _config_from(args)
    state = _build_state(cfg, resume=args.resume)
    nu = build_measure(state, mode=cfg.mode)
    fp = cfg.fingerprint()
    header = f"# fingerprint={fp} seed={cfg.seed}\n"
    _write(_out_path(cfg, "measure.txt"), header + nu.to_text())
    checkpoint = {
        "fingerprint": fp,
        "seed": cfg.seed,
        "state": json.loads(state.to_json()),
    }
    _write(_out_path(cfg, "state.json"), json.dumps(checkpoint, sort_keys=True))
    total = nu.total_mass()
    print(
        f"stages={state.stage} atoms={len(nu)} total_mass={total} "
        f"lost={nu.lost_mass} honest_through={state.honest_through()}"
    )
    return EXIT_OK


def cmd_folner(args) -> int:
    cfg = _config_from(args)
    g = parse_group(cfg.group)
    H = AmenableSubgroup(g, args.embedding)
    B = GSet.from_texts(g, tuple(args.b.split())) if args.b else GSet(g, frozenset())
    eps = Fraction(args.eps)
    F = folner_set(H, B, eps)
    doc = {
        "fingerprint": cfg.fingerprint(),
        "seed": cfg.seed,
        "group": g.spec_text(),
        "embedding": args.embedding,
        "B": sorted(B.to_texts()),
        "eps": str(eps),
        "size": len(F),
        "F": sorted(F.to_texts()),
    }
    text = json.dumps(doc, sort_keys=True)
    print(text)
    if args.out_dir:
        _write(_out_path(cfg, "folner.json"), text)
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = _config_from(args)
    g = parse_group(cfg.group)
    if not cfg.catalogue:
        raise SpecMismatchError("nothing to certify: no catalogue entries")
    certs = []
    refuted = 0
    for s_texts, embedding in cfg.catalogue:
        S = GSet.from_texts(g, s_texts)
        H = AmenableSubgroup(g, embedding)
        c = certify_visibility(S, H)
        certs.append(json.loads(c.to_json()))
        print(f"S={{{', '.join(sorted(s_texts))}}} H={embedding}: {c.verdict}")
        if c.verdict != "pass":
            refuted += 1
    doc = {
        "fingerprint": cfg.fingerprint(),
        "seed": cfg.seed,
        "certificates": certs,
    }
    _write(_out_path(cfg, "certificates.json"), json.dumps(doc, sort_keys=True))
    return EXIT_USAGE if refuted else EXIT_OK


def _report(args, stem: str) -> TVReport:
    """Build nu, run the non-disjointness report, write `<stem>.csv` and `<stem>.json`."""
    cfg = _config_from(args)
    state = _build_state(cfg)
    nu = build_measure(state, mode=cfg.mode)
    mu = delta(state.group, mode=cfg.mode)
    S = GSet.from_texts(state.group, cfg.catalogue[0][0])
    rep = nondisjointness_report(
        mu,
        S,
        nu,
        n_max=cfg.n_max,
        budget=cfg.budget_atoms,
        slack=cfg.slack,
        threads=cfg.threads,
        fingerprint=cfg.fingerprint(),
        seed=cfg.seed,
    )
    _write(_out_path(cfg, f"{stem}.csv"), rep.to_csv())
    _write(_out_path(cfg, f"{stem}.json"), rep.to_json())
    return rep


def cmd_tv_curve(args) -> int:
    rep = _report(args, "tv-curve")
    last = rep.per_n_min[-1]
    print(f"n={last[0]} min_t d_n={last[1]:.6f} bracket={last[2]:.6f}")
    return EXIT_OK


def cmd_report(args) -> int:
    rep = _report(args, "report")
    print(f"bound={rep.bound} slack={rep.slack} verdict={rep.verdict.upper()}")
    return EXIT_OK if rep.verdict == "pass" else EXIT_INCONCLUSIVE


def cmd_control(args) -> int:
    name = args.control_preset or args.preset
    if name is None:
        raise SpecMismatchError("control needs a preset name")
    canon = CONTROL_ALIASES.get(name.lower())
    if canon is None:
        raise SpecMismatchError(
            f"unknown control {name!r}; expected one of {sorted(CONTROL_ALIASES)}"
        )
    if args.group is None and args.preset is None:
        args.group = "free(2)" if canon == "free-group-srw" else "free-abelian(1)"
    cfg = _config_from(args)
    # a flag beats the config file; with neither, the control's own defaults
    # (50 stages; n_max 10 or 50) apply rather than the RunConfig ones
    in_file = config_file_values(args.config) if args.config else {}
    stages = next(v for v in (args.stages, in_file.get("stages"), 50) if v is not None)
    n_max = args.n_max if args.n_max is not None else in_file.get("n_max")
    rep = control_experiment(canon, seed=cfg.seed, stages=stages, n_max=n_max)
    # fingerprint the stage count and horizon that ran, not the config defaults
    fp = replace(cfg, stages=stages, n_max=rep.n_max).fingerprint()
    rep = replace(rep, fingerprint=fp)
    _write(_out_path(cfg, "control.csv"), rep.to_csv())
    _write(_out_path(cfg, "control.json"), rep.to_json())
    print(f"control={name} floor: {rep.control_floor} verdict={rep.verdict.upper()}")
    return EXIT_OK if rep.verdict == "pass" else EXIT_USAGE


def cmd_couple(args) -> int:
    cfg = _config_from(args, eps=args.eps_cfg)
    state = _build_state(cfg)
    S = GSet.from_texts(state.group, cfg.catalogue[0][0])
    rep = estimate_M(
        state,
        S,
        N=cfg.warmup,
        eps=cfg.eps,
        trials=cfg.trials,
        horizon=cfg.horizon,
        seed=cfg.seed,
    )
    doc = json.loads(rep.to_json())
    doc["fingerprint"] = cfg.fingerprint()
    _write(_out_path(cfg, "couple.json"), json.dumps(doc, sort_keys=True))
    if rep.failed:
        print(
            f"horizon {cfg.horizon} exhausted: hit probability "
            f"{rep.hit_probability:.4f} never reached {1 - cfg.eps}; raise --horizon"
        )
        return EXIT_BUDGET
    print(
        f"M={rep.M} hit={rep.hit_probability:.4f} "
        f"ci=({rep.ci[0]:.4f}, {rep.ci[1]:.4f}) trials={rep.trials}"
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="groupwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="run the stage recursion, emit measure + checkpoint")
    _add_common(p)
    p.add_argument("--resume", help="state.json checkpoint to continue from")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("folner", help="single Følner-set query")
    _add_common(p)
    p.add_argument("--embedding", required=True, help="whole|center|factor:<j>|lamps|trivial")
    p.add_argument("--b", default="", help="space-separated element texts for B")
    p.add_argument("--eps", default="1/4", help="invariance tolerance as a fraction")
    p.set_defaults(fn=cmd_folner)

    p = sub.add_parser("certify", help="visibility certificates for the catalogue")
    _add_common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("tv-curve", help="d_n curve for every t in S")
    _add_common(p)
    p.set_defaults(fn=cmd_tv_curve)

    p = sub.add_parser("report", help="non-disjointness verdict (pass/inconclusive)")
    _add_common(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("control", help="known-answer control experiments")
    _add_common(p)
    p.add_argument(
        "control_preset",
        nargs="?",
        help="free-group-srw | amenable-sanity (defaults to --preset)",
    )
    p.set_defaults(fn=cmd_control)

    p = sub.add_parser("couple", help="decomposition-event threshold estimate")
    _add_common(p)
    p.add_argument("--eps", dest="eps_cfg", type=float, help="tolerance for 1-eps hit probability")
    p.set_defaults(fn=cmd_couple)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SpecMismatchError, GroupwalkError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
