"""Shipped experiment presets and known-answer controls.

Each preset fixes a group, a catalogue of (S, H) pairs and a stage count.
`f2-control` is not a construction preset at all — it is the free-group
control walk. It stays here so that `--preset f2-control` resolves: `control`
runs it, and `construct` points at `groupwalk control f2-control`.

`CONTROLS` declares each control once, under its name and its alias: the
group it runs on, its default horizon and its stage count. Both
`diagnostics.control_experiment` and the `control` command read it.
"""

from __future__ import annotations

from dataclasses import dataclass

from groupwalk.config import RunConfig
from groupwalk.construction import (
    AlphaSchedule,
    ConstructionState,
    catalogue_from_texts,
    new_state,
    resume_construction,
    run_construction,
)
from groupwalk.errors import SpecMismatchError
from groupwalk.groups import parse_group


@dataclass(frozen=True)
class Preset:
    group_text: str
    catalogue: tuple[tuple[tuple[str, ...], str], ...]  # (S texts, embedding)
    stages: int


PRESETS: dict[str, Preset] = {
    "f2xz": Preset(
        group_text="product(free(2), free-abelian(1))",
        catalogue=(((("(e|(1))",)), "center"),),
        stages=32,
    ),
    "z-amenable": Preset(
        group_text="free-abelian(1)",
        catalogue=(((("(1)",)), "whole"),),
        stages=50,
    ),
    # the free-group control is a plain SRW, not a construction: no catalogue
    "f2-control": Preset(
        group_text="free(2)",
        catalogue=(),
        stages=0,
    ),
}


@dataclass(frozen=True)
class Control:
    name: str  # canonical name
    group_text: str
    n_max: int  # default horizon
    stages: int = 50  # built by the amenable control; fingerprinted by both


_FREE_CONTROL = Control("free-group-srw", "free(2)", n_max=10)
_AMENABLE_CONTROL = Control("amenable-sanity", "free-abelian(1)", n_max=50)
CONTROLS: dict[str, Control] = {
    "free-group-srw": _FREE_CONTROL,
    "f2-control": _FREE_CONTROL,
    "amenable-sanity": _AMENABLE_CONTROL,
    "z-amenable": _AMENABLE_CONTROL,
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise SpecMismatchError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


def get_control(name: str) -> Control:
    try:
        return CONTROLS[name.lower()]
    except KeyError:
        raise SpecMismatchError(
            f"unknown control {name!r}; expected one of {sorted(CONTROLS)}"
        ) from None


def initial_state(cfg: RunConfig) -> ConstructionState:
    """Stage 0 of the construction a resolved config describes."""
    g = parse_group(cfg.group)
    if not cfg.catalogue:
        if cfg.preset is not None:
            raise SpecMismatchError(
                f"preset {cfg.preset!r} has no catalogue to construct; "
                f"run it with `groupwalk control {cfg.preset}`"
            )
        raise SpecMismatchError("config has no catalogue entries and no preset")
    return new_state(
        g,
        catalogue_from_texts(g, cfg.catalogue, cfg.seed),
        AlphaSchedule(cfg.alpha),
        product_cap=cfg.product_cap,
    )


def fresh_state(cfg: RunConfig, checkpoint: str | None = None) -> ConstructionState:
    """Run the construction a resolved config describes, from stage 0 through `cfg.stages`.

    Given a checkpoint's text, `resume_construction` runs it instead, which
    continues only if the stages it runs again equal the checkpoint's.
    """
    if checkpoint is not None:
        return resume_construction(initial_state(cfg), checkpoint, cfg.stages)
    return run_construction(initial_state(cfg), cfg.stages)


def preset_state(name: str, seed: int, stages: int | None = None) -> ConstructionState:
    """Build and run a preset construction through `stages` (default: the preset's own)."""
    return fresh_state(RunConfig(preset=name, seed=seed, stages=stages).resolved())
