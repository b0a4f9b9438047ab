"""Command-line front end.

Subcommands: construct, folner, certify, tv-curve, report, control, couple.
Exit codes: 0 success, 1 usage/config error (including refuted certificates
and failed controls), 2 budget exhaustion, 3 INCONCLUSIVE verdict.

Every command builds its `RunConfig` through `_config_from`: each flag whose
dest is a `RunConfig` field beats the `--config` file, which beats the
command's own defaults (only `control` has any, from `presets.CONTROLS`),
then the preset, then the `RunConfig` default. A control runs its own group:
its defaults name it, and a config whose group, or whose preset's group, is
another exits 1.

`construct --resume` hands the checkpoint to `presets.fresh_state`, whose
`construction.resume_construction` runs its stages again and continues only
if they equal it.

Provenance is stamped here and nowhere else: `_stamped` turns a command's
payload into the bytes it writes, a dict as sorted-key JSON with the config
fingerprint and seed added, a text under one `# fingerprint=... seed=...`
line. Artifacts carry no timestamps, so they are byte-identical for
identical config+seed. `--threads` is accepted for existing command lines
and has no effect.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from groupwalk.amenable import AmenableSubgroup, certify_visibility, folner_set
from groupwalk.config import RunConfig, parse_config_text
from groupwalk.construction import build_measure
from groupwalk.diagnostics import TVReport, control_experiment, nondisjointness_report
from groupwalk.errors import BudgetError, GroupwalkError, SpecMismatchError
from groupwalk.groups import GSet, parse_group
from groupwalk.measures import delta
from groupwalk.presets import fresh_state, get_control, get_preset
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
    p.add_argument("--threads", type=int, help="accepted (>= 1); no effect, the kernel is serial")
    p.add_argument("--stages", type=int)
    p.add_argument("--budget-atoms", dest="budget_atoms", type=int)
    p.add_argument("--mode", choices=("exact", "float"))
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--warmup", type=int, help="decomposition warm-up bound N")
    p.add_argument("--slack", type=float)


_FIELDS = {f.name for f in fields(RunConfig)}


def _config_from(args, defaults: dict | None = None) -> RunConfig:
    """The resolved config: every flag whose dest is a `RunConfig` field, over
    the `--config` file, over `defaults`."""
    flags = {k: v for k, v in vars(args).items() if k in _FIELDS}
    text = Path(args.config).read_text() if args.config else ""
    return parse_config_text(text, defaults, **flags).resolved()


def _stamped(cfg: RunConfig, payload: dict | str) -> str:
    """The bytes of an artifact: a dict as sorted-key JSON with the config's
    fingerprint and seed added, a text under one line naming them."""
    if isinstance(payload, dict):
        return json.dumps({**payload, "fingerprint": cfg.fingerprint(), "seed": cfg.seed}, sort_keys=True)
    return f"# fingerprint={cfg.fingerprint()} seed={cfg.seed}\n{payload}"


def _write(cfg: RunConfig, name: str, payload: dict | str) -> None:
    """Write the stamped `payload` to `name` in the config's output directory."""
    d = Path(cfg.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    (d / name).write_text(_stamped(cfg, payload))
    print(f"wrote {d / name}")


# -- subcommands -----------------------------------------------------------


def cmd_construct(args) -> int:
    cfg = _config_from(args)
    state = fresh_state(cfg, Path(args.resume).read_text() if args.resume else None)
    nu = build_measure(state, mode=cfg.mode)
    _write(cfg, "measure.txt", nu.to_text())
    _write(cfg, "state.json", {"state": state.to_dict()})
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
    try:
        eps = Fraction(args.folner_eps)
    except ZeroDivisionError:
        raise SpecMismatchError(f"--eps {args.folner_eps!r} has a zero denominator") from None
    F = folner_set(H, B, eps)
    doc = {
        "group": g.spec_text(),
        "embedding": args.embedding,
        "B": sorted(B.to_texts()),
        "eps": str(eps),
        "size": len(F),
        "F": sorted(F.to_texts()),
    }
    print(_stamped(cfg, doc))
    if args.out_dir:
        _write(cfg, "folner.json", doc)
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = _config_from(args)
    g = parse_group(cfg.group)
    if not cfg.catalogue:
        raise SpecMismatchError("nothing to certify: no catalogue entries")
    certs = []
    for s_texts, embedding in cfg.catalogue:
        S = GSet.from_texts(g, s_texts)
        verdict = "pass" if certify_visibility(S, AmenableSubgroup(g, embedding)) else "refuted"
        certs.append({"group": g.spec_text(), "S": S.to_texts(), "subgroup": embedding, "verdict": verdict})
        print(f"S={{{', '.join(sorted(s_texts))}}} H={embedding}: {verdict}")
    _write(cfg, "certificates.json", {"certificates": certs})
    return EXIT_OK if all(c["verdict"] == "pass" for c in certs) else EXIT_USAGE


def _report(args, stem: str, stop_early: bool) -> TVReport:
    """Build nu, run the non-disjointness report, write `<stem>.csv` and `<stem>.json`."""
    cfg = _config_from(args)
    state = fresh_state(cfg)
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
        stop_early=stop_early,
    )
    _write(cfg, f"{stem}.csv", rep.to_csv())
    _write(cfg, f"{stem}.json", rep.to_dict())
    return rep


def cmd_tv_curve(args) -> int:
    rep = _report(args, "tv-curve", stop_early=False)
    last = rep.per_n_min[-1]
    print(f"n={last[0]} min_t d_n={last[1]:.6f} bracket={last[2]:.6f}")
    return EXIT_OK


def cmd_report(args) -> int:
    rep = _report(args, "report", stop_early=True)
    print(f"bound={rep.bound} slack={rep.slack} verdict={rep.verdict.upper()}")
    return EXIT_OK if rep.verdict == "pass" else EXIT_INCONCLUSIVE


def cmd_control(args) -> int:
    name = args.control_preset or args.preset
    if name is None:
        raise SpecMismatchError("control needs a preset name")
    control = get_control(name)
    defaults = {"group": control.group_text, "stages": control.stages, "n_max": control.n_max, "mode": "exact"}
    cfg = _config_from(args, defaults)
    # a preset names a group too, though the defaults' group beats it
    for text in (cfg.group, get_preset(cfg.preset).group_text if cfg.preset else cfg.group):
        if parse_group(text) != parse_group(control.group_text):
            raise SpecMismatchError(f"control {control.name} runs on {control.group_text}, not {text}")
    if cfg.mode == "float":
        raise SpecMismatchError(
            "control runs in exact arithmetic only: --mode float (or mode = float "
            "in the config file) does not apply"
        )
    rep = control_experiment(control.name, seed=cfg.seed, stages=cfg.stages, n_max=cfg.n_max)
    _write(cfg, "control.csv", rep.to_csv())
    _write(cfg, "control.json", rep.to_dict())
    print(f"control={name} floor: {rep.control_floor} verdict={rep.verdict.upper()}")
    return EXIT_OK if rep.verdict == "pass" else EXIT_USAGE


def cmd_couple(args) -> int:
    cfg = _config_from(args)
    state = fresh_state(cfg)
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
    _write(cfg, "couple.json", rep.to_dict())
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
    p.add_argument("--eps", dest="folner_eps", default="1/4", help="invariance tolerance as a fraction")
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
    p.add_argument("--eps", type=float, help="tolerance for 1-eps hit probability")
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
