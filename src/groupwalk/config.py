"""Run configuration: file format, precedence, and fingerprinting.

Config files are plain `key = value` lines (# comments allowed); each key is
a `RunConfig` field, read as that field's annotated type. Each value comes
from the first of these that sets it: a command-line flag, the config file,
the command's own defaults, the preset (`resolved`), the `RunConfig` default.

The fingerprint is a SHA-256 over every semantics-bearing field; `threads`
and `out_dir` are deliberately excluded so the same experiment is recognized
as the same run wherever it wrote. `threads` is still accepted and validated
so existing configs and command lines keep working, but the kernel is serial
and ignores it.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import dataclass, fields, replace

from groupwalk.errors import SpecMismatchError

_NON_SEMANTIC = {"threads", "out_dir"}


@dataclass(frozen=True)
class RunConfig:
    preset: str | None = None
    group: str | None = None
    # catalogue entries: (tuple of S element texts, embedding name)
    catalogue: tuple[tuple[tuple[str, ...], str], ...] = ()
    alpha: str = "harmonic"
    seed: int = 20260813
    stages: int | None = None  # None: the preset's stage count, else 32
    budget_atoms: int | None = 2_000_000
    product_cap: int = 1_000_000
    trials: int = 10_000
    horizon: int = 16_384
    n_max: int = 40
    eps: float = 0.25
    warmup: int = 4
    mode: str = "float"
    slack: float = 0.5
    threads: int = 1
    out_dir: str = "results"

    def __post_init__(self):
        if self.mode not in ("float", "exact"):
            raise SpecMismatchError(f"mode must be float or exact, got {self.mode!r}")
        if not 0 <= self.seed < 1 << 64:
            # `derive` keys every stream by the seed's low 64 bits
            raise SpecMismatchError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.threads < 1:
            raise SpecMismatchError("threads must be >= 1")
        if self.budget_atoms is not None and self.budget_atoms < 1:
            raise SpecMismatchError(f"budget_atoms must be >= 1, got {self.budget_atoms}")
        if self.product_cap < 1:
            raise SpecMismatchError(f"product_cap must be >= 1, got {self.product_cap}")
        if self.n_max < 1:
            raise SpecMismatchError(f"n_max must be >= 1, got {self.n_max}")
        if self.preset is None and self.group is None:
            raise SpecMismatchError("config needs either a preset or a group")

    def fingerprint(self) -> str:
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in _NON_SEMANTIC:
                continue
            parts.append(f"{f.name}={getattr(self, f.name)!r}")
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        return digest[:16]

    def resolved(self) -> "RunConfig":
        """Fill group, catalogue and stage-count defaults from the preset, if one is named."""
        if self.preset is None:
            return self if self.stages is not None else replace(self, stages=32)
        from groupwalk.presets import get_preset

        p = get_preset(self.preset)
        out = self
        if out.group is None:
            out = replace(out, group=p.group_text)
        if not out.catalogue:
            out = replace(out, catalogue=p.catalogue)
        if out.stages is None:
            out = replace(out, stages=p.stages)
        return out


# each field's type, `int | None` read as int
_FIELD_TYPES = {
    name: (typing.get_args(hint) or (hint,))[0]
    for name, hint in typing.get_type_hints(RunConfig).items()
}


def parse_config_text(text: str, defaults: dict | None = None, **overrides) -> RunConfig:
    """The config of `overrides` (None values skipped) over the file `text`
    over `defaults` over the `RunConfig` defaults."""
    values = dict(defaults or {})
    values.update(_parse_values(text))
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise SpecMismatchError(str(exc)) from None


def _parse_values(text: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecMismatchError(f"config line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in _FIELD_TYPES:
            raise SpecMismatchError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, val)
    return values


def _coerce(key: str, val: str):
    kind = _FIELD_TYPES[key]
    if key == "catalogue":
        return _parse_catalogue(val)
    if key == "budget_atoms" and val.lower() in ("none", ""):
        return None
    if kind not in (int, float):
        return val
    try:
        return int(val.replace("_", "")) if kind is int else float(val)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise SpecMismatchError(f"{key} expects {noun}, got {val!r}") from None


def _parse_catalogue(val: str) -> tuple[tuple[tuple[str, ...], str], ...]:
    """`(e|(1)) @ center; (1) (−1) @ whole` — entries split on ';',
    S element texts space-separated before '@', embedding after."""
    entries = []
    for chunk in val.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "@" not in chunk:
            raise SpecMismatchError(
                f"catalogue entry {chunk!r}: expected 'elements @ embedding'"
            )
        els, _, emb = chunk.rpartition("@")
        texts = tuple(els.split())
        if not texts or not emb.strip():
            raise SpecMismatchError(f"catalogue entry {chunk!r} is incomplete")
        entries.append((texts, emb.strip()))
    return tuple(entries)
