"""Coupled sampling of walk increments and the decomposition-event estimator.

Each increment is generated through the coupling (K, color, X): K is the
stage index drawn from the stage weights, the color is uniform on
{blue, red, green}, and X is then uniform over F_K (blue), c_K (red) or
c_K^-1 (green). Marginally X has the law of the constructed measure; the
stage truncation at k is handled by rejection-resampling K > k, with
rejections counted so the conditioning is auditable.

`estimate_M` Monte Carlo-estimates the first step l at which the
remainder-extraction event fires — l past the warm-up N, K_l a strict
record exceeding l+1, the schedule drawing the target set at stage K_l,
and the color blue — and reports the smallest horizon M whose hit
probability clears 1 - eps at the Wilson 95% lower bound. This event is
sampled under the untruncated stage law (no rejection), since it concerns
the idealized walk; only X-sampling needs the stage-k truncation.

All sampling is counter-based (random access by key and counter), so
results are independent of batching and worker count. Two layouts remain:

- increment sample s reads slots 16s..16s+15 of the stream (seed, label):
  K attempts at 16s..16s+13, the color at 16s+14, the blue pick at
  16s+15. A sample whose 14 K attempts all exceed k reads slots 0, 1, ...
  of its own stream (seed, label + "-overflow", s) until one does not;
- `estimate_M`'s trial t reads the stream (seed, "couple", t): K_l at
  slot 2l and the color at slot 2l+1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from groupwalk.construction import ConstructionState
from groupwalk.detrng import CounterRng, derive, _mix64_np
from groupwalk.errors import SpecMismatchError
from groupwalk.groups import GSet
from groupwalk.measures import SparseMeasure
from groupwalk.mcstats import CHI2_CRIT_01, chi2_independence, wilson_interval

COLORS = ("blue", "red", "green")
_STRIDE = 16  # counter slots per sample: K attempts 0..13, color 14, pick 15
_MAX_K_ATTEMPTS = 14


class WalkModel:
    """Immutable prepared view of a construction state for fast sampling."""

    def __init__(self, state: ConstructionState):
        if state.stage < 1:
            raise SpecMismatchError("walk needs at least one completed stage")
        self.state = state
        self.group = state.group
        self.alpha = state.alpha
        self.k = state.stage
        self.F = [None] + [r.F.sorted_elements() for r in state.records]
        # flat atom table: per stage [c_i, c_i^-1, F_i...]
        self.atom_offset = [0, 0]
        flat = []
        for r, F in zip(state.records, self.F[1:]):
            flat.append(r.c)
            flat.append(state.group.inv(r.c))
            flat.extend(F)
            self.atom_offset.append(len(flat))
        self.atoms = flat


def _batch_keys(seed: int, label: str, start: int, count: int) -> np.ndarray:
    return np.array(
        [derive(seed, label, t) for t in range(start, start + count)], dtype=np.uint64
    )


def _uniform_grid(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """uniforms[t, j] for stream key t at counter j."""
    mixed = _mix64_np(counters[None, :].astype(np.uint64) ^ keys[:, None])
    return (mixed >> np.uint64(11)) * np.float64(2.0**-53)


def _sample_atom_ids(model: WalkModel, seed: int, label: str, samples: int, batch: int = 1 << 18):
    """Vectorized increment sampling; yields (atom_id array, rejections, colors).

    Atom ids index WalkModel.atoms; the counter layout per sample s is
    _STRIDE*s + attempt (K draws), +14 (color), +15 (blue pick).
    """
    rng = CounterRng(seed, label)
    f_sizes = np.array([0] + [len(F) for F in model.F[1:]], dtype=np.int64)
    offsets = np.array(model.atom_offset, dtype=np.int64)
    for start in range(0, samples, batch):
        n = min(batch, samples - start)
        base = (np.arange(start, start + n, dtype=np.uint64)) * np.uint64(_STRIDE)
        u = rng.uniforms_at(base)
        K = model.alpha.sample_k_array(u)
        rejections = 0
        for attempt in range(1, _MAX_K_ATTEMPTS):
            bad = K > model.k
            n_bad = int(np.count_nonzero(bad))
            if n_bad == 0:
                break
            rejections += n_bad
            u2 = rng.uniforms_at(base[bad] + np.uint64(attempt))
            K[bad] = model.alpha.sample_k_array(u2)
        else:
            for idx in np.nonzero(K > model.k)[0]:
                aux = CounterRng(seed, label + "-overflow", start + int(idx))
                j = 0
                while (kk := model.alpha.sample_k(aux.uniform_at(j))) > model.k:
                    j += 1
                K[idx] = kk
                rejections += j + 1  # j overflow draws and the last in-stride one
        ucol = rng.uniforms_at(base + np.uint64(14))
        colors = np.minimum((ucol * 3).astype(np.int64), 2)
        upick = rng.uniforms_at(base + np.uint64(15))
        pick = np.minimum((upick * f_sizes[K]).astype(np.int64), f_sizes[K] - 1)
        ids = np.where(
            colors == 0,
            offsets[K] + 2 + pick,
            offsets[K] + colors - 1,
        )
        yield ids, rejections, colors


def empirical_increment_law(model: WalkModel, samples: int, seed: int):
    """Histogram `samples` coupled increments into a float measure.

    Returns (measure, stats) where stats records color counts with Wilson
    intervals and the total number of stage rejections.
    """
    if samples < 1:
        raise SpecMismatchError("samples must be >= 1")
    counts: dict[int, int] = {}
    color_counts = np.zeros(3, dtype=np.int64)
    rejections = 0
    for ids, rej, colors in _sample_atom_ids(model, seed, "increments", samples):
        rejections += rej
        color_counts += np.bincount(colors, minlength=3)
        uniq, cnt = np.unique(ids, return_counts=True)
        for i, c in zip(uniq, cnt):
            counts[int(i)] = counts.get(int(i), 0) + int(c)
    data: dict = {}
    for i, c in counts.items():
        x = model.atoms[i]
        data[x] = data.get(x, 0.0) + c / samples
    measure = SparseMeasure.from_items(model.group, data, "float")
    stats = {
        "samples": samples,
        "rejections": rejections,
        "colors": {
            COLORS[j]: {
                "count": int(color_counts[j]),
                "fraction": float(color_counts[j] / samples),
                "wilson95": list(wilson_interval(int(color_counts[j]), samples)),
            }
            for j in range(3)
        },
    }
    return measure, stats


def empirical_pair_law(model: WalkModel, samples: int, seed: int) -> SparseMeasure:
    """Empirical law of X_1 * X_2 over `samples` independent pairs."""
    pair_counts: dict[tuple[int, int], int] = {}
    n_atoms = len(model.atoms)
    gen1 = _sample_atom_ids(model, seed, "pair-a", samples)
    gen2 = _sample_atom_ids(model, seed, "pair-b", samples)
    for (ids1, _, _), (ids2, _, _) in zip(gen1, gen2):
        codes = ids1 * n_atoms + ids2
        uniq, cnt = np.unique(codes, return_counts=True)
        for code, c in zip(uniq, cnt):
            key = (int(code) // n_atoms, int(code) % n_atoms)
            pair_counts[key] = pair_counts.get(key, 0) + int(c)
    g = model.group
    data: dict = {}
    for (i, j), c in pair_counts.items():
        z = g.mul(model.atoms[i], model.atoms[j])
        data[z] = data.get(z, 0.0) + c / samples
    return SparseMeasure.from_items(g, data, "float")


def coupling_independence(model: WalkModel, samples: int, seed: int) -> dict:
    """Chi-square factorization check of (K, color) at significance 0.01.

    K is binned into {1..6, >=7} against the three colors; the untruncated
    stage law is used (no rejection), matching the coupling's definition.
    """
    rng = CounterRng(seed, "chi")
    table = np.zeros((7, 3), dtype=np.int64)
    batch = 1 << 18
    for start in range(0, samples, batch):
        n = min(batch, samples - start)
        base = np.arange(start, start + n, dtype=np.uint64) * np.uint64(2)
        K = model.alpha.sample_k_array(rng.uniforms_at(base))
        col = np.minimum((rng.uniforms_at(base + np.uint64(1)) * 3).astype(np.int64), 2)
        kbin = np.minimum(K, 7) - 1
        np.add.at(table, (kbin, col), 1)
    stat, df = chi2_independence(table.tolist())
    crit = CHI2_CRIT_01[df]
    return {
        "samples": samples,
        "table": table.tolist(),
        "chi2": stat,
        "df": df,
        "critical_0.01": crit,
        "independent": bool(stat < crit),
    }


@dataclass(frozen=True)
class DecompositionReport:
    """Monte Carlo estimate of the horizon M for the remainder-extraction event."""

    S_texts: tuple[str, ...]
    N: int
    eps: float
    trials: int
    horizon: int
    seed: int
    M: int | None
    hit_probability: float
    ci: tuple[float, float]
    remainder_estimate: float
    curve: tuple  # rows (M, hit fraction, wilson lo, wilson hi)
    failed: bool
    ci_method: str = "wilson-95"

    def to_json(self) -> str:
        return json.dumps(
            {
                "S": list(self.S_texts),
                "N": self.N,
                "eps": self.eps,
                "trials": self.trials,
                "horizon": self.horizon,
                "seed": self.seed,
                "M": self.M,
                "hit_probability": self.hit_probability,
                "ci": list(self.ci),
                "remainder_estimate": self.remainder_estimate,
                "curve": [list(row) for row in self.curve],
                "failed": self.failed,
                "ci_method": self.ci_method,
            },
            sort_keys=True,
        )


def estimate_M(
    state: ConstructionState,
    S: GSet,
    N: int,
    eps: float,
    trials: int,
    horizon: int,
    seed: int,
) -> DecompositionReport:
    """Smallest M whose event probability clears 1 - eps (Wilson 95% lower)."""
    if not (0 < eps <= 1):
        raise SpecMismatchError("eps must be in (0, 1]")
    if trials < 1 or horizon < 1 or N < 0:
        raise SpecMismatchError("trials, horizon >= 1 and N >= 0 required")
    g = state.group
    cat = state.catalogue
    matching = [
        j for j, e in enumerate(cat.entries) if e.S.elements == S.elements
    ]
    if not matching:
        raise SpecMismatchError("S is not a catalogue entry")
    s_texts = tuple(g.element_to_text(x) for x in S.sorted_elements())
    if eps >= 1.0:
        return DecompositionReport(
            s_texts, N, eps, trials, horizon, seed, 0, 0.0, (0.0, 0.0), 1.0, (), False
        )

    match_set = np.array(matching, dtype=np.int64)
    steps = np.arange(1, horizon + 1, dtype=np.int64)
    never = horizon + 1
    hit_times = np.full(trials, never, dtype=np.int64)
    batch = max(1, (1 << 22) // horizon)
    for start in range(0, trials, batch):
        n = min(batch, trials - start)
        keys = _batch_keys(seed, "couple", start, n)
        uK = _uniform_grid(keys, (steps * 2).astype(np.uint64))
        K = state.alpha.sample_k_array(uK)
        del uK
        ucol = _uniform_grid(keys, (steps * 2 + 1).astype(np.uint64))
        blue = ucol < (1.0 / 3.0)
        del ucol
        running = np.maximum.accumulate(K, axis=1)
        prev_record = np.concatenate(
            [np.zeros((n, 1), dtype=np.int64), running[:, :-1]], axis=1
        )
        del running
        sched = cat.draw_index_array(K.astype(np.uint64).ravel()).reshape(K.shape)
        cond = (
            (K > steps + 1)
            & (K > prev_record)
            & blue
            & np.isin(sched, match_set)
            & (steps > N)
        )
        del K, prev_record, sched, blue
        any_hit = cond.any(axis=1)
        first = np.where(any_hit, cond.argmax(axis=1) + 1, never)
        hit_times[start : start + n] = first
        del cond

    target = 1.0 - eps
    order = np.sort(hit_times[hit_times <= horizon])
    M_star = None
    for pos, h in enumerate(order, start=1):
        lo, _ = wilson_interval(pos, trials)
        if lo >= target:
            M_star = int(h)
            break
    grid = []
    m = 1
    while m < horizon:
        grid.append(m)
        m *= 2
    grid.append(horizon)
    curve = []
    for m in grid:
        c = int(np.count_nonzero(hit_times <= m))
        lo, hi = wilson_interval(c, trials)
        curve.append((m, c / trials, lo, hi))
    # hits by M, or by the horizon when no M clears the target (failed)
    c = int(np.count_nonzero(hit_times <= (horizon if M_star is None else M_star)))
    lo, hi = wilson_interval(c, trials)
    return DecompositionReport(
        s_texts, N, eps, trials, horizon, seed,
        M_star, c / trials, (lo, hi), 1.0 - c / trials, tuple(curve), M_star is None,
    )
