"""Shipped experiment presets.

Each preset fixes a group, a catalogue of (S, H) pairs and a stage count.
`f2-control` is not a construction preset at all — it is the free-group
control walk and is handled by `diagnostics.control_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass

from groupwalk.config import RunConfig
from groupwalk.construction import (
    AlphaSchedule,
    ConstructionState,
    catalogue_from_texts,
    new_state,
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

CONTROL_ALIASES = {
    "free-group-srw": "free-group-srw",
    "f2-control": "free-group-srw",
    "amenable-sanity": "amenable-sanity",
    "z-amenable": "amenable-sanity",
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise SpecMismatchError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


def fresh_state(cfg: RunConfig) -> ConstructionState:
    """Run the construction a resolved config describes, from stage 0 through `cfg.stages`."""
    g = parse_group(cfg.group)
    if not cfg.catalogue:
        raise SpecMismatchError("config has no catalogue entries and no preset")
    state = new_state(
        g,
        catalogue_from_texts(g, cfg.catalogue, cfg.seed),
        AlphaSchedule(cfg.alpha),
        product_cap=cfg.product_cap,
    )
    return run_construction(state, cfg.stages)


def preset_state(name: str, seed: int, stages: int | None = None) -> ConstructionState:
    """Build and run a preset construction through `stages` (default: the preset's own)."""
    return fresh_state(RunConfig(preset=name, seed=seed, stages=stages).resolved())
