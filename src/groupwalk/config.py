"""Run configuration: file format, CLI merge, and fingerprinting.

Config files are plain `key = value` lines (# comments allowed). The
fingerprint is a SHA-256 over every semantics-bearing field; `threads` and
`out_dir` are deliberately excluded so the same experiment is recognized as
the same run no matter how it was parallelized or where it wrote.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

from groupwalk.errors import SpecMismatchError

_NON_SEMANTIC = {"threads", "out_dir"}

_INT_FIELDS = {
    "seed",
    "stages",
    "budget_atoms",
    "product_cap",
    "trials",
    "horizon",
    "n_max",
    "warmup",
    "threads",
}
_FLOAT_FIELDS = {"eps", "slack"}


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
        if self.threads < 1:
            raise SpecMismatchError("threads must be >= 1")
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


def parse_config_text(text: str, **overrides) -> RunConfig:
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
        if key not in {f.name for f in fields(RunConfig)}:
            raise SpecMismatchError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, val)
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise SpecMismatchError(str(exc)) from None


def load_config(path: str | Path, **overrides) -> RunConfig:
    return parse_config_text(Path(path).read_text(), **overrides)


def _coerce(key: str, val: str):
    if key in _INT_FIELDS:
        if val.lower() in ("none", "") and key == "budget_atoms":
            return None
        try:
            return int(val.replace("_", ""))
        except ValueError:
            raise SpecMismatchError(f"{key} expects an integer, got {val!r}") from None
    if key in _FLOAT_FIELDS:
        try:
            return float(val)
        except ValueError:
            raise SpecMismatchError(f"{key} expects a number, got {val!r}") from None
    if key == "catalogue":
        return _parse_catalogue(val)
    return val


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
