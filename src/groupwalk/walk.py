"""Coupled sampling of walk increments and the decomposition-event estimator.

Each increment is generated through the coupling (K, color, X): K is the
stage index drawn from the stage weights, the color is uniform on
{blue, red, green}, and X is then uniform over F_K (blue), c_K (red) or
c_K^-1 (green). Marginally X has the law of the constructed measure. The
stage truncation at k conditions K on K <= k, and it is drawn by inversion:
the quantile of the conditioned law at u is the untruncated quantile at
u * P(K <= k), so one uniform gives the exact truncated law.

`estimate_M` Monte Carlo-estimates the first step l at which the
remainder-extraction event fires — l past the warm-up N, K_l a strict
record exceeding l+1, the schedule drawing the target set at stage K_l,
and the color blue — and reports the smallest horizon M whose hit
probability clears 1 - eps at the Wilson 95% lower bound. This event is
sampled under the untruncated stage law, since it concerns the idealized
walk; only X-sampling needs the stage-k truncation.

All sampling is counter-based (random access by key and counter), so
results are independent of batching. Two layouts remain:

- increment sample s reads slots 3s, 3s+1 and 3s+2 of the stream
  (seed, label): K at 3s, the color at 3s+1, the blue pick at 3s+2;
- `estimate_M`'s trial t reads the stream (seed, "couple", t): K_l at
  slot 2l and the color at slot 2l+1. It reads K_l only until the trial
  first hits, and the color only at steps past N where K_l is a strict
  record exceeding l+1; no other cell can change the hit time. Whether
  K_l exceeds l+1 is decided on slot 2l's mixed 64-bit word against an
  integer cut, exactly as on its uniform, so only those cells' words
  become floats.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from groupwalk.construction import AlphaSchedule, ConstructionState
from groupwalk.detrng import CounterRng, derive, _mix64_np, _word_cuts, _word_uniforms
from groupwalk.errors import SpecMismatchError
from groupwalk.groups import GSet
from groupwalk.measures import SparseMeasure
from groupwalk.mcstats import CHI2_CRIT_01, chi2_independence, wilson_interval

COLORS = ("blue", "red", "green")
_STRIDE = 3  # counter slots per sample: K, color, blue pick
_TILE_CELLS = 1 << 18  # most trial x step cells estimate_M draws at once
_STEP_SPAN = 1 << 12  # most steps whose candidate thresholds are bisected at once


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
    """derive(seed, label, t) for t in start..start+count-1: one mix past the shared prefix."""
    t = np.arange(start, start + count, dtype=np.uint64)
    return _mix64_np(t ^ np.uint64(derive(seed, label)))


def _uniform_grid(keys: np.ndarray, counters: np.ndarray, out=None) -> np.ndarray:
    """The mixed words of stream keys at counters (both uint64), the two
    broadcast together: `mix64(key ^ counter)`, whose top 53 bits times
    2^-53 are the uniform `uniform_at` reads there (`_word_uniforms`).

    `keys[:, None]` against `counters[None, :]` gives the grid w[t, j] for
    key t at counter j; two equal-length vectors give one word per pair.
    The words `key ^ counter` are formed in `out` when it is given, and
    mixed where they are formed.
    """
    words = np.bitwise_xor(counters, keys, out=out)
    return _mix64_np(words, out=words)


def _candidate_thresholds(alpha: AlphaSchedule, steps: np.ndarray) -> np.ndarray:
    """Per step l, the least m with `sample_k(m * 2^-53) > l + 1`, or 2^53 if none.

    Every uniform is m * 2^-53 and `sample_k_array` is non-decreasing in u,
    so bisecting m against `sample_k_array` itself makes `u >= m[l] * 2^-53`
    exactly the test `K_l > l + 1`; on the mixed word w it is
    `w > _word_cuts(m)[l]`.
    """
    lo = np.zeros(steps.size, dtype=np.int64)  # sample_k(0) = 1 <= l + 1
    hi = np.full(steps.size, 1 << 53, dtype=np.int64)  # u = 1.0: never reached
    for _ in range(53):
        mid = (lo + hi) // 2
        above = alpha.sample_k_array(mid * 2.0**-53) > steps + 1
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return hi


def _require_samples(samples: int) -> None:
    """Refuse a sampler run of no samples, which has no empirical law."""
    if samples < 1:
        raise SpecMismatchError("samples must be >= 1")


def _sample_atom_ids(model: WalkModel, seed: int, label: str, samples: int, batch: int = 1 << 15):
    """Vectorized increment sampling; yields (atom_id array, colors) per batch.

    Atom ids index WalkModel.atoms. Sample s reads three uniforms: K at slot
    3s, drawn from the stage law truncated at k by inversion (the
    untruncated quantile at u * P(K <= k)); the color at 3s+1; the blue
    pick at 3s+2. K is clipped to k: the quantile is float arithmetic, and
    at u * p = p itself 1/(1 - p) passes k + 1 by a rounding error (at
    k = 32 on the harmonic rule), which ceil turns into K = k + 1, past
    the stage tables. The ids do not depend on `batch`. Its default keeps
    each of a batch's arrays at 256 KiB: a million samples raise peak RSS
    by ~4 MB this way, and by ~25 MB, more slowly, at 2^18 a batch.
    """
    rng = CounterRng(seed, label)
    p = float(model.alpha.partial_sum(model.k))
    f_sizes = np.array([0] + [len(F) for F in model.F[1:]], dtype=np.int64)
    offsets = np.array(model.atom_offset, dtype=np.int64)
    for start in range(0, samples, batch):
        n = min(batch, samples - start)
        base = (np.arange(start, start + n, dtype=np.uint64)) * np.uint64(_STRIDE)
        K = np.minimum(model.alpha.sample_k_array(rng.uniforms_at(base) * p), model.k)
        ucol = rng.uniforms_at(base + np.uint64(1))
        colors = np.minimum((ucol * 3).astype(np.int64), 2)
        upick = rng.uniforms_at(base + np.uint64(2))
        pick = np.minimum((upick * f_sizes[K]).astype(np.int64), f_sizes[K] - 1)
        ids = np.where(
            colors == 0,
            offsets[K] + 2 + pick,
            offsets[K] + colors - 1,
        )
        yield ids, colors


def empirical_increment_law(model: WalkModel, samples: int, seed: int):
    """Histogram `samples` coupled increments into a float measure.

    Atom ids are counted into one array over WalkModel.atoms. Returns
    (measure, stats) where stats records the sample count and the color
    counts with Wilson intervals.
    """
    _require_samples(samples)
    counts = np.zeros(len(model.atoms), dtype=np.int64)
    color_counts = np.zeros(3, dtype=np.int64)
    for ids, colors in _sample_atom_ids(model, seed, "increments", samples):
        counts += np.bincount(ids, minlength=len(model.atoms))
        color_counts += np.bincount(colors, minlength=3)
    data: dict = {}
    for i in np.flatnonzero(counts).tolist():
        x = model.atoms[i]
        data[x] = data.get(x, 0.0) + int(counts[i]) / samples
    measure = SparseMeasure.from_items(model.group, data, "float")
    stats = {
        "samples": samples,
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
    _require_samples(samples)
    pair_counts: dict[tuple[int, int], int] = {}
    n_atoms = len(model.atoms)
    gen1 = _sample_atom_ids(model, seed, "pair-a", samples)
    gen2 = _sample_atom_ids(model, seed, "pair-b", samples)
    for (ids1, _), (ids2, _) in zip(gen1, gen2):
        codes = ids1 * n_atoms + ids2
        uniq, cnt = np.unique(codes, return_counts=True)
        for code, c in zip(uniq, cnt):
            key = (int(code) // n_atoms, int(code) % n_atoms)
            pair_counts[key] = pair_counts.get(key, 0) + int(c)
    g = model.group
    data: dict = {}
    for (i, j), c in sorted(pair_counts.items()):  # one summation order for any batching
        z = g.mul(model.atoms[i], model.atoms[j])
        data[z] = data.get(z, 0.0) + c / samples
    return SparseMeasure.from_items(g, data, "float")


def coupling_independence(model: WalkModel, samples: int, seed: int) -> dict:
    """Chi-square factorization check of (K, color) at significance 0.01.

    K is binned into {1..6, >=7} against the three colors; the untruncated
    stage law is used, matching the coupling's definition.
    """
    _require_samples(samples)
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

    def to_dict(self) -> dict:
        return {
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
        }


def _first_clearing(order: np.ndarray, trials: int, target: float) -> int | None:
    """The first of the sorted hit times `order` at which the Wilson lower
    bound on the hit count reaches `target`, or None if none does.

    The lower bound never decreases as the count grows, so a bisection over
    the counts finds the same position as a scan, in ~log2(trials) calls.
    """
    counts = range(1, len(order) + 1)
    pos = bisect.bisect_left(counts, True, key=lambda c: wilson_interval(c, trials)[0] >= target)
    return int(order[pos]) if pos < len(order) else None


def estimate_M(
    state: ConstructionState,
    S: GSet,
    N: int,
    eps: float,
    trials: int,
    horizon: int,
    seed: int,
) -> DecompositionReport:
    """Smallest M whose event probability clears 1 - eps (Wilson 95% lower).

    Trial t's hit time is its first step l > N where K_l > l+1, K_l beats
    every earlier K, the color is blue and the schedule at stage K_l draws
    an entry whose set is S. Only the cells that can decide it are drawn:

    - steps go in tiles of at most `_TILE_CELLS` cells, each tile over the
      trials that have not hit yet and inside one span of `_STEP_SPAN`
      steps, so no array grows with trials x horizon, nor with horizon;
    - `K_l > l+1` is read on the mixed words, as `w > cut_l`
      (`_candidate_thresholds`, `_word_cuts`), so only the candidate
      cells' words become uniforms, and K is computed there only;
    - the color and the schedule are read only at candidate records past N.

    Two facts keep the result equal to a full trials x horizon grid's. A
    cell with K_l <= l+1 cannot fire, nor block a later candidate, since
    K_j <= j+1 <= l < K_l; so a candidate is a record exactly when it beats
    the largest earlier candidate. And the streams are random access, so a
    cell drawn alone has the value the grid would give it.
    """
    if not (0 < eps <= 1):
        raise SpecMismatchError("eps must be in (0, 1]")
    if trials < 1 or horizon < 1 or N < 0:
        raise SpecMismatchError("trials, horizon >= 1 and N >= 0 required")
    cat = state.catalogue
    matching = [
        j for j, e in enumerate(cat.entries) if e.S.elements == S.elements
    ]
    if not matching:
        raise SpecMismatchError("S is not a catalogue entry")
    s_texts = tuple(S.to_texts())
    if eps >= 1.0:
        return DecompositionReport(
            s_texts, N, eps, trials, horizon, seed, 0, 0.0, (0.0, 0.0), 1.0, (), False
        )

    alpha = state.alpha
    match_set = np.array(matching, dtype=np.int64)
    never = horizon + 1
    hit_times = np.full(trials, never, dtype=np.int64)
    # candidate thresholds of steps span_lo, span_lo + 1, ..., bisected a
    # span at a time, and their word cuts
    span_lo, span_m, span_cut = 1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
    # every tile forms and mixes its words in this one buffer, so no tile
    # allocates a grid-sized array, whose pages the allocator would give
    # back to the OS for the next tile to fault in again
    words = np.empty(_TILE_CELLS, dtype=np.uint64)
    for start in range(0, trials, _TILE_CELLS):
        # per live trial: its row in this block, its stream key, and the
        # largest candidate K drawn so far (the record to beat)
        rows = np.arange(min(_TILE_CELLS, trials - start))
        keys = _batch_keys(seed, "couple", start, rows.size)
        top = np.zeros(rows.size, dtype=np.int64)
        first = 1
        while rows.size and first <= horizon:
            if not span_lo <= first < span_lo + span_m.size:
                span_lo, span_end = first, min(first + _STEP_SPAN, never)
                span_m = _candidate_thresholds(alpha, np.arange(span_lo, span_end))
                span_cut = _word_cuts(span_m)
            width = min(span_lo + span_m.size - first, max(1, _TILE_CELLS // rows.size))
            steps = np.arange(first, first + width, dtype=np.int64)
            if span_m[first - span_lo] == 1 << 53:
                break  # thresholds rise with l: no later cell is a candidate
            cut = span_cut[first - span_lo : first - span_lo + width]
            first += width
            grid = words[: rows.size * width].reshape(rows.size, width)
            w = _uniform_grid(keys[:, None], (2 * steps).astype(np.uint64)[None, :], out=grid)
            r, c = np.divmod(np.flatnonzero(w > cut), width)  # candidates, in row then step order
            K = alpha.sample_k_array(_word_uniforms(w[r, c]))
            # strict records: the j-th candidate of every row at once, for
            # j = 0, 1, ..., each against its row's largest earlier K
            record = np.zeros(r.size, dtype=bool)
            rank = np.arange(r.size) - np.searchsorted(r, r)
            for j in range(int(rank.max(initial=-1)) + 1):
                at = np.nonzero(rank == j)[0]
                record[at] = K[at] > top[r[at]]
                top[r[at]] = np.maximum(top[r[at]], K[at])
            late = np.nonzero(record & (steps[c] > N))[0]
            ucol = _word_uniforms(_uniform_grid(keys[r[late]], (2 * steps[c[late]] + 1).astype(np.uint64)))
            sched = cat.draw_index_array(K[late].astype(np.uint64))
            fire = late[(ucol < 1.0 / 3.0) & np.isin(sched, match_set)]
            hit_rows, at = np.unique(r[fire], return_index=True)
            hit_times[start + rows[hit_rows]] = steps[c[fire[at]]]
            live = np.ones(rows.size, dtype=bool)
            live[hit_rows] = False
            rows, keys, top = rows[live], keys[live], top[live]

    M_star = _first_clearing(np.sort(hit_times[hit_times <= horizon]), trials, 1.0 - eps)
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
