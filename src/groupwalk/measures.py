"""Sparse nonnegative measures on countable groups, with mass accounting.

A SparseMeasure is a finite list of weighted atoms plus a `lost_mass`
ledger: every operation that drops atoms (support budgets, truncations)
adds the dropped weight to the ledger instead of silently renormalizing.
Total-variation distances therefore come back as a pair
``(value, bracket)`` where the true distance between the ideal measures
lies within ``value +- bracket``.

Two arithmetic modes, never mixed:

* ``"exact"`` - integer numerators over one per-measure denominator
  `_den`, bit-exact results; masses come back as Fractions;
* ``"float"`` - float64 masses.

Exact numerators are int64 whenever a bound on every value and every
partial sum that the operation making them forms is below 2^63, and Python
ints in an object array otherwise; `_dtype` alone decides, from that bound:
the numerator sum for `from_items`, D for `build_measure`, mu's numerator
sum times nu's for a convolution, twice the sum for `tv_left_translate` and
the cross-scaled sums for `tv_distance`. Integer sums are exact in any
order, so the dtype never changes a result, and every mass leaves as a
Fraction of Python ints.

Every measure has one storage layout, the same in both modes: a packed
pool of sorted uint64 codes (see `groupwalk.codecs`) with their weights,
plus a side dict. One placement rule, `_place`, decides where an atom goes:
an atom the group's codec can encode goes in the pool; every other atom goes
in the side dict, which holds all atoms of a codec-less group and atoms whose
word or coordinate does not fit the codec's fields.

Every convolution runs on one serial kernel, `_products`, which adds every
row in one fixed order; `_convolve_fast` and `_convolve_exact` are its two
ledgers (float masses, and numerators over `mu._den * nu._den`). A group
without a codec takes the same kernel with an empty pool.

A convolution mu * nu takes one of two routes, and `_window_plan` alone
chooses, from the inputs. The window route runs on a codec whose lowest
field is one biased integer coordinate (`line_bits`): the plan finds mu's
fibers, nu's line shifts as a dense kernel, every fiber's run and one
window per target fiber, and `_stream_windows` sums the product into those
windows without sorting a row, one slice of at most `_SLICE_SLOTS` slots
at a time: the dense blocks first, then nu's other atoms in spiral order.
Each slice's atoms join a running top-`budget` set, which is cut to the
atoms at or above its budget-th largest weight whenever it passes
2 * budget, so the route holds at most twice the budget plus one slice,
not every slot.
Every other convolution takes the sort route: nu's atoms in spiral order,
each run of consecutive pool atoms one codec `mul` of mu's codes by the
run's codes (rows y-major, at most max(|mu pool|, 2^12) a call), and the
rows flushed through `_dedup` (a stable sort, then a sum per code), so a
code's rows are summed in nu's spiral order. A side atom of nu does not
encode, so its products with mu's pool, like every product that does not
encode, are summed in the side dict by the group law, and the placement
rule sends those that encode to the pool at the end. Both routes keep the
top `budget` atoms by one rule, `_select_top`'s, and neither keeps an atom
whose weight sums to 0.

A convolution whose working set would pass `_ACC_BYTES` raises BudgetError
before allocating it. The sort route prices its accumulator and pending
rows; the window route prices its plan before the plan's broadcast `mul`
(`_plan_words`), then its live set (`_live_rows`): the running set, of at
most 2 * budget atoms or every window slot without a budget, one slice's
scratch and the plan's arrays. An int64 numerator fits in its row; a
Python-int numerator is priced at the size of the product's denominator.

Atom order everywhere is the group's spiral order (word length, then the
family's lexicographic rank); all tie-breaks reduce to it.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple

import numpy as np

from groupwalk.errors import BudgetError, ConvolutionRefused, SpecMismatchError
from groupwalk.groups import GSet, Group

_FLUSH_ROWS = 1 << 22  # the most pending rows `_products` holds before a dedup flush
_BLOCK_ROWS = 1 << 12  # the rows one sort-route `mul` call makes, unless mu's pool is larger
_PAIR_LIMIT = 6 * 10**9  # refuse convolutions beyond this many pairs
_ACC_BYTES = 1 << 31  # refuse a convolution whose working set would pass this
_ROW_BYTES = 16  # one uint64 code and one float64 mass, int64 numerator or pointer to one
_SLICE_SLOTS = 1 << 17  # the window slots `_stream_windows` sums at once, unless one window is longer
_PLAN_WORDS = 12  # the most words `_window_plan` holds a cell of its broadcast shape; see `_plan_words`


def _dtype(mode: str, bound=0):
    """The weight dtype of an operation in `mode`: float64 masses, or exact
    numerators as int64 when `bound`, a Python int at least every value and
    every partial sum the operation forms, is below 2^63, and as Python ints
    in an object array otherwise. Float mode ignores `bound`."""
    if mode == "float":
        return np.float64
    return np.int64 if bound < 1 << 63 else object


def _zero(mode: str):
    return Fraction(0) if mode == "exact" else 0.0


def _mass_sum(values, mode: str):
    return sum(values) if mode == "exact" else math.fsum(values)


def _spiral(group: Group, items) -> list:
    """(element, weight) pairs sorted in spiral order."""
    return sorted(items, key=lambda kv: group.sort_key(kv[0]))


def _coerce_mass(m, mode: str):
    if mode == "exact":
        if isinstance(m, Fraction):
            return m
        if isinstance(m, int):
            return Fraction(m)
        raise SpecMismatchError(f"exact mode needs Fraction weights, got {type(m).__name__}")
    if isinstance(m, (int, float)):
        return float(m)
    raise SpecMismatchError(f"float mode needs float weights, got {type(m).__name__}")


def _place(codec, atoms: dict, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The placement rule: pop every atom of `atoms` that the codec encodes.

    Returns their codes and weights, as `dtype`, in `atoms`' order, unsorted; every other
    atom (all of them without a codec) stays in `atoms`, the side dict.
    """
    codes = {} if codec is None else {x: c for x in atoms if (c := codec.encode_one(x)) is not None}
    weights = [atoms.pop(x) for x in codes]
    return np.array(list(codes.values()), dtype=np.uint64), np.array(weights, dtype=dtype)


class SparseMeasure:
    """Finitely supported measure; see the module docstring for the contract.

    Every measure stores its atoms in a packed pool, `_codes` (uint64,
    strictly ascending) with their weights in `_masses`, and a dict `_side`.
    One placement rule serves both modes: an atom the group's codec can
    encode lives in the pool, every other atom in `_side`, and no element is
    ever in both. Float weights are the masses (float64). Exact weights are
    integer numerators over one denominator `_den`: `_masses` is int64, or
    an object array of Python ints past `_dtype`'s bound, and `_side` holds
    Python ints; `as_dict` gives them as Fractions.
    """

    __slots__ = ("group", "mode", "lost_mass", "_codes", "_masses", "_side", "_den")

    def __init__(self, group: Group, mode: str = "float", *, lost_mass=None):
        if mode not in ("float", "exact"):
            raise SpecMismatchError(f"unknown mode {mode!r}")
        self.group = group
        self.mode = mode
        self.lost_mass = _zero(mode) if lost_mass is None else _coerce_mass(lost_mass, mode)
        if not 0 <= self.lost_mass < math.inf:
            raise SpecMismatchError(f"lost_mass {self.lost_mass} is not finite and >= 0")
        self._codes: np.ndarray = np.zeros(0, dtype=np.uint64)
        self._masses: np.ndarray = np.zeros(0, dtype=_dtype(mode))
        self._side: dict = {}
        self._den = 1

    # -- constructors --------------------------------------------------

    @classmethod
    def from_items(cls, group: Group, items, mode: str = "float", lost_mass=None) -> "SparseMeasure":
        """Measure from input made outside the kernel: every atom is coerced and
        validated, repeated elements are summed and zero weights dropped.
        Weights and `lost_mass` must be finite and >= 0, or the bracket fails."""
        mu = cls(group, mode, lost_mass=lost_mass)
        data: dict = {}
        for x, m in items.items() if isinstance(items, dict) else items:
            m = _coerce_mass(m, mode)
            if not 0 <= m < math.inf:
                raise SpecMismatchError(f"weight {m} at {x!r} is not finite and >= 0")
            if m != 0:
                data[x] = data.get(x, _zero(mode)) + m
        for x in data:
            group.validate(x)
        if mode == "exact":
            mu._den = math.lcm(*(m.denominator for m in data.values()))
            data = {x: m.numerator * (mu._den // m.denominator) for x, m in data.items()}
        codes, masses = _place(group.codec(), data, _dtype(mode, sum(data.values())))
        order = np.argsort(codes, kind="stable")
        mu._codes = codes[order]
        mu._masses = masses[order]
        mu._side = data
        return mu

    @classmethod
    def _from_pool(
        cls, group: Group, codes: np.ndarray, masses: np.ndarray, side: dict, lost_mass,
        mode: str = "float", den: int = 1,
    ) -> "SparseMeasure":
        """Measure from kernel output: valid atoms of positive weight, already placed.

        `codes` are sorted and `side` holds the rest, so nothing is coerced or
        validated again; input from outside the kernel goes through `from_items`.
        """
        mu = cls(group, mode, lost_mass=lost_mass)
        mu._codes = codes
        mu._masses = masses
        mu._side = side
        mu._den = den
        return mu

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._codes) + len(self._side)

    def _mass(self, w):
        """A sum of stored weights as a mass: a float, or a Fraction of Python ints over `_den`."""
        return Fraction(int(w), self._den) if self.mode == "exact" else float(w)

    def _weight_sum(self):
        """The sum of the stored weights: a Python int in exact mode."""
        if self.mode == "exact":
            return int(np.sum(self._masses)) + sum(self._side.values())
        return float(np.sum(self._masses)) + math.fsum(self._side.values())

    def total_mass(self):
        return self._mass(self._weight_sum())

    def _atoms(self) -> dict:
        """Every atom with its stored weight (a numerator over `_den` in exact mode)."""
        if not len(self._codes):
            return dict(self._side)
        decode = self.group.codec().decode_one
        out = dict(zip(map(decode, self._codes.tolist()), self._masses.tolist()))
        out.update(self._side)
        return out

    def as_dict(self) -> dict:
        if self.mode == "exact":
            return {x: self._mass(n) for x, n in self._atoms().items()}
        return self._atoms()

    def items_canonical(self) -> list:
        return _spiral(self.group, self.as_dict().items())

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        lines = [
            "groupwalk-measure 1",
            f"group {self.group.spec_text()}",
            f"mode {self.mode}",
            f"lost {_mass_to_text(self.lost_mass, self.mode)}",
            f"atoms {len(self)}",
        ]
        for x, m in self.items_canonical():
            lines.append(f"{_mass_to_text(m, self.mode)} {self.group.element_to_text(x)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SparseMeasure":
        """The measure a `to_text` payload describes; any malformed payload is
        a SpecMismatchError."""
        from groupwalk.groups import parse_group

        lines = [
            l for l in text.splitlines() if l.strip() and not l.lstrip().startswith("#")
        ]
        if not lines or lines[0].split() != ["groupwalk-measure", "1"]:
            raise SpecMismatchError("not a groupwalk-measure v1 payload")
        hdr = {}
        for line in lines[1:5]:
            k, _, v = line.partition(" ")
            hdr[k] = v.strip()
        try:
            group = parse_group(hdr["group"])
            mode = hdr["mode"]
            lost = _mass_from_text(hdr["lost"], mode)
            n = int(hdr["atoms"])
            body = lines[5 : 5 + n]
            if len(body) != n:
                raise SpecMismatchError(f"expected {n} atom lines, found {len(body)}")
            items = []
            for line in body:
                m_txt, _, el_txt = line.partition(" ")
                items.append(
                    (group.element_from_text(el_txt.strip()), _mass_from_text(m_txt, mode))
                )
        except KeyError as exc:
            raise SpecMismatchError(f"measure has no {exc.args[0]!r} header line") from None
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecMismatchError(f"malformed measure: {exc}") from None
        return cls.from_items(group, items, mode, lost_mass=lost)

    def __repr__(self):
        return (
            f"SparseMeasure({self.group.spec_text()}, mode={self.mode}, "
            f"atoms={len(self)}, total={self.total_mass()}, lost={self.lost_mass})"
        )


def _mass_to_text(m, mode: str) -> str:
    if mode == "exact":
        return f"{m.numerator}/{m.denominator}"
    return float(m).hex()


def _mass_from_text(s: str, mode: str):
    if mode == "exact":
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den or "1"))
    return float.fromhex(s)


# -- constructors --------------------------------------------------------


def delta(group: Group, x=None, mode: str = "float") -> SparseMeasure:
    """Point mass at x (identity when omitted)."""
    if x is None:
        x = group.identity
    one = Fraction(1) if mode == "exact" else 1.0
    return SparseMeasure.from_items(group, [(x, one)], mode)


def uniform(S: GSet, mode: str = "float") -> SparseMeasure:
    """Uniform probability measure on a finite GSet."""
    if not S.elements:
        raise SpecMismatchError("uniform measure on empty set")
    n = len(S.elements)
    w = Fraction(1, n) if mode == "exact" else 1.0 / n
    return SparseMeasure.from_items(S.group, [(x, w) for x in S.elements], mode)


# -- shared accounting helpers -------------------------------------------


def _check_compat(mu: SparseMeasure, nu: SparseMeasure) -> None:
    if mu.group != nu.group:
        raise SpecMismatchError("operands live on different groups")
    if mu.mode != nu.mode:
        raise SpecMismatchError(f"mixed modes: {mu.mode} vs {nu.mode}")


def _propagated_lost(mu: SparseMeasure, nu: SparseMeasure):
    """Worst-case unlocated mass of mu*nu given each operand's ledger."""
    t_mu, t_nu = mu.total_mass(), nu.total_mass()
    return mu.lost_mass * (t_nu + nu.lost_mass) + nu.lost_mass * t_mu


def _prune_dict(group: Group, data: dict, budget: int, mode: str):
    """Keep the `budget` heaviest atoms; ties resolved in spiral order.

    Returns (kept dict, pruned mass).
    """
    if len(data) <= budget:
        return data, _zero(mode)
    ranked = _spiral(group, data.items())
    ranked.sort(key=lambda kv: kv[1], reverse=True)  # stable: spiral order within ties
    kept = dict(ranked[:budget])
    return kept, _mass_sum([m for _, m in ranked[budget:]], mode)


def _select_top(group: Group, codes, masses, side: dict, budget: int, mode: str, whole=None):
    """Top-`budget` atoms across the packed pool and the dict side pool.

    Atoms rank by stored weight; exact numerators share one denominator, so
    they rank as their masses do. Ties at the cutoff are resolved by spiral
    order (packed ties are decoded first; an empty pool, as on a codec-less
    group, has none). The pruned weight is `whole` less the kept weight;
    `whole` defaults to the sum of every weight given, and a caller that
    has dropped some atoms already passes the sum with theirs. Returns (codes,
    weights, side_kept, pruned weight).
    """
    total = len(codes) + len(side)
    side_items = _spiral(group, side.items())
    side_masses = np.array([m for _, m in side_items], dtype=masses.dtype)
    all_masses = np.concatenate([masses, side_masses]) if side_items else masses
    cutoff = np.partition(all_masses, total - budget)[total - budget]

    keep = masses > cutoff
    side_kept = {x: m for x, m in side_items if m > cutoff}
    need = budget - int(np.count_nonzero(keep)) - len(side_kept)
    tie_at = np.flatnonzero(masses == cutoff)
    codec = group.codec()
    tied = [(codec.decode_one(c), i) for c, i in zip(codes[tie_at].tolist(), tie_at.tolist())]
    tied += [(x, None) for x, m in side_items if m == cutoff]
    for x, i in _spiral(group, tied)[:need]:
        if i is None:
            side_kept[x] = side[x]
        else:
            keep[i] = True

    kept = masses[keep]
    if whole is None:
        whole = np.sum(all_masses)
    pruned = whole - (np.sum(kept) + _mass_sum(side_kept.values(), mode))
    return codes[keep], kept, side_kept, max(pruned, 0)


# -- convolution -----------------------------------------------------------


def convolve_reference(
    mu: SparseMeasure, nu: SparseMeasure, budget: int | None = None
) -> SparseMeasure:
    """Naive pairwise convolution, kept deliberately simple for oracle use."""
    _check_compat(mu, nu)
    g = mu.group
    zero = _zero(mu.mode)
    acc: dict = {}
    for x, mx in mu.items_canonical():
        for y, wy in nu.items_canonical():
            z = g.mul(x, y)
            acc[z] = acc.get(z, zero) + mx * wy
    lost = _propagated_lost(mu, nu)
    if budget is not None and len(acc) > budget:
        acc, pruned = _prune_dict(g, acc, budget, mu.mode)
        lost = lost + pruned
    return SparseMeasure.from_items(g, acc, mu.mode, lost_mass=lost)


def _dedup(codes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct codes in ascending order, each with the sum of its weights.

    The sort is stable, so each code's weights are summed in input order
    whatever the flush schedule, and timsort merges the already-sorted runs
    the kernel produces instead of re-sorting them. Float weights are summed
    by `np.bincount`; exact numerators, int64 or Python ints, by
    `np.add.reduceat`, which keeps their dtype (`np.bincount` sums in float64).
    """
    if not len(codes):
        return codes, weights  # np.bincount would give int64 weights here
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    first = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    uniq = codes[first]
    if weights.dtype != np.float64:
        return uniq, np.add.reduceat(weights[order], np.flatnonzero(first))
    return uniq, np.bincount(np.cumsum(first) - 1, weights=weights[order], minlength=len(uniq))


def _check_rows(rows: int, row_bytes: int) -> None:
    """Refuse a convolution whose working set, `rows` rows of `row_bytes`
    each, would pass `_ACC_BYTES`. Callers price before they allocate: the
    sort route its accumulator, pending rows and next `mul` block; the
    window route its plan (`_plan_words`), then its live set (`_live_rows`)."""
    if rows * row_bytes > _ACC_BYTES:
        raise BudgetError(
            f"convolution needs {rows} rows ({rows * row_bytes} bytes), over the "
            f"accumulator cap _ACC_BYTES = {_ACC_BYTES} bytes"
        )


class _Plan(NamedTuple):
    """The window route's plan for mu * nu; see `_window_plan`."""

    kernel: np.ndarray  # nu's line shifts as K dense slots
    others: list  # the weights of nu's other pool atoms, in spiral order
    part: np.ndarray  # each other atom's upper part
    shift: np.ndarray  # each other atom's line value
    counts: np.ndarray  # atoms per fiber of mu
    rel: np.ndarray  # each atom's place in its fiber's run
    blocks: np.ndarray  # each fiber's dense block length
    origin: np.ndarray  # each window's first code minus its first slot
    wlen: np.ndarray  # the window lengths
    start: np.ndarray  # the first slot of each run, per row and fiber
    order: np.ndarray  # every run (row * |fibers| + fiber) sorted by target window
    at: np.ndarray  # where each window's runs begin in `order`


def _window_plan(mu: SparseMeasure, nu: SparseMeasure) -> _Plan | None:
    """The window route's plan for mu * nu, or None when the sort route runs.

    The codec's lowest field (`line_bits`) is a biased integer coordinate; a
    fiber is mu's pool atoms that agree above it. The line shifts are nu's
    pool atoms equal to the identity outside that field; they form one run
    of nu's sorted codes, and as a kernel of K slots they turn each fiber
    into a dense block of span + K slots. Each other pool atom y of nu moves
    a fiber, as one contiguous run, to the fiber of fiber * y, shifted by
    y's field value. Atoms with one upper part (the bits above the field)
    move every fiber to the same target, so one broadcast `mul` of the
    fibers' first codes by each distinct upper part finds them all. The
    targets are sorted once, and each target fiber gets one window spanning
    its runs (`np.minimum.reduceat` and `np.maximum.reduceat` over them).

    The route is chosen from the inputs alone. None when the product is one
    the windows cannot represent: no line field, no pool in mu, a side atom
    in mu or nu, no line shift in nu, a first code whose product with an
    upper part does not encode, or a run that leaves the field; and None
    when the windows are longer than the |mu pool| * |nu pool| rows the
    sort route would hold (the fill guard).

    Otherwise returns a `_Plan`. The windows are laid end to end in key
    order; a window's origin is its first code minus its first slot
    (uint64 wraps), so slot k holds code origin + k. Row 0 of `start` holds
    the first slot of each fiber's dense block, and row 1 + u the first
    slot of its run for upper part u before the shift, so the j-th other
    atom's run starts at start[1 + part[j]] + shift[j]. `order` and `at`
    are the sort that made the windows: the runs of window w are
    order[at[w] : at[w + 1]].

    The plan's peak is priced (`_plan_words`, 8 bytes a word) before the
    broadcast `mul`, and a plan over the cap raises BudgetError.
    """
    if mu._side or nu._side or not len(mu._codes):
        return None
    codec = mu.group.codec()
    b = codec.line_bits
    if b is None:
        return None
    field = (1 << b) - 1
    e = codec.encode_one(mu.group.identity)
    lo, hi = np.searchsorted(
        nu._codes, np.array([(e >> b) << b, ((e >> b) + 1) << b], dtype=np.uint64)
    ).tolist()
    if lo == hi:
        return None
    z = (nu._codes[lo:hi] & np.uint64(field)).astype(np.int64) - (e & field)
    z_min = int(z[0])
    K = int(z[-1]) - z_min + 1
    rel = (mu._codes & np.uint64(field)).astype(np.int64)
    starts = np.flatnonzero(np.concatenate([[True], np.diff(mu._codes >> np.uint64(b)) != 0]))
    counts = np.diff(np.append(starts, len(rel)))
    lo_first = rel[starts]  # each fiber's first field value
    rel -= np.repeat(lo_first, counts)  # now each atom's place in its fiber's run
    blocks = rel[starts + counts - 1] + K
    kernel = np.zeros(K, dtype=nu._masses.dtype)
    kernel[z - z_min] = nu._masses[lo:hi]
    rest = np.r_[0:lo, hi : len(nu._codes)]
    rest = np.array(
        [k for _, k in _spiral(mu.group, zip(map(codec.decode_one, nu._codes[rest].tolist()), rest.tolist()))],
        dtype=np.intp,
    )
    others = nu._masses[rest].tolist()
    # nu's other atoms with one upper part move every fiber to the same key,
    # and their line values only shift the runs: so one row per upper part,
    # and row 0 for the dense blocks
    upper, part = np.unique(nu._codes[rest] >> np.uint64(b), return_inverse=True)
    shift = (nu._codes[rest] & np.uint64(field)).astype(np.int64) - (e & field)
    first = mu._codes[starts]
    _check_rows(_plan_words(len(rel), len(upper), len(starts)), 8)
    out, ok = codec.mul(first[None, :], ((upper << np.uint64(b)) | np.uint64(e & field))[:, None])
    if not ok.all():
        return None
    keys = np.vstack([first >> np.uint64(b), out >> np.uint64(b)])
    line = np.vstack([lo_first + z_min, (out & np.uint64(field)).astype(np.int64)])
    del out, ok
    moves = [shift[part == u] for u in range(len(upper))]
    lows = line + np.array([0] + [int(m.min()) for m in moves], dtype=np.int64)[:, None]
    highs = line + (blocks - K) + np.array([K - 1] + [int(m.max()) for m in moves], dtype=np.int64)[:, None]
    if int(lows.min()) < 0 or int(highs.max()) > field:
        return None
    # one window per distinct key, spanning its runs
    order = np.argsort(keys.ravel())
    flat = keys.ravel()[order]
    del keys
    new = np.ones(len(flat), dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    at = np.flatnonzero(new)
    wlo = np.minimum.reduceat(lows.ravel()[order], at)
    wlen = np.maximum.reduceat(highs.ravel()[order], at) - wlo + 1
    del lows, highs
    if int(wlen.sum()) > len(mu._codes) * len(nu._codes):
        return None
    base = np.cumsum(wlen) - wlen
    origin = ((flat[at] << np.uint64(b)) | wlo.astype(np.uint64)) - base.astype(np.uint64)
    del flat
    wid = np.empty(len(order), dtype=np.intp)
    wid[order] = np.cumsum(new) - 1
    # a run's first slot is its window's base plus its place in the window
    start = (base - wlo)[wid].reshape(line.shape) + line
    return _Plan(kernel, others, part, shift, counts, rel, blocks, origin, wlen, start, order, at)


def _plan_words(atoms: int, parts: int, fibers: int) -> int:
    """The most words `_window_plan` holds at once for `atoms` pool atoms of
    mu in `fibers` fibers and `parts` upper parts of nu: one a pool atom
    (each atom's place in its run) and `_PLAN_WORDS` a cell of the
    (1 + parts) x fibers shape of the broadcast `mul` and the runs.

    A cell's words are the `mul`'s temporaries, or later the runs' keys,
    line values, lows, highs and sort order with the gathered copies and
    their window arrays (one a window, at most one a cell): about 11 when
    every run has a window of its own. Step 6 of the k = 32 f2xz curve at
    budget 200k holds 8.1 a cell at its peak.
    """
    return atoms + _PLAN_WORDS * (1 + parts) * fibers


def _slices(wlen: np.ndarray) -> list:
    """Bounds of the consecutive runs of windows that `_stream_windows` sums
    at once: at most `_SLICE_SLOTS` slots each, or one window that is longer."""
    ends = np.cumsum(wlen)
    bounds = [0]
    while bounds[-1] < len(wlen):
        w = bounds[-1]
        limit = int(ends[w] - wlen[w]) + _SLICE_SLOTS
        bounds.append(max(w + 1, int(np.searchsorted(ends, limit, side="right"))))
    return bounds


def _live_rows(plan: _Plan, bounds: list, budget: int | None) -> int:
    """The rows `_stream_windows` holds at once over the slices `bounds`,
    the plan's arrays included.

    The running set holds at most 2 * budget rows when a slice starts (it
    is cut once it passes that), or every slot of the windows if there are
    fewer or there is no budget; a cut, like the closing concatenation,
    copies the set's codes or weights once more: 1.5 rows each. The slice
    adds its scratch: two rows a slot (its accumulator, its dense blocks
    with their slots, and its kept slots, which then join the set) and the
    atoms gathered into it by the upper parts live at once. The plan's
    arrays, read throughout, count as rows of `_ROW_BYTES`.
    """
    ends = np.cumsum(plan.wlen)
    slots = np.diff(np.concatenate([[0], ends])[bounds])
    # live[u, j]: upper part u is gathered while nu's j-th other atom is added
    j = np.arange(len(plan.part))
    first = np.unique(plan.part, return_index=True)[1]
    last = len(j) - 1 - np.unique(plan.part[::-1], return_index=True)[1]
    live = (first[:, None] <= j) & (j <= last[:, None])
    runs_at = np.append(plan.at, len(plan.order))
    scratch = 0
    for n, a, b in zip(slots.tolist(), runs_at[bounds[:-1]], runs_at[bounds[1:]]):
        row, fiber = np.divmod(plan.order[a:b], len(plan.counts))
        atoms = np.bincount(row, weights=plan.counts[fiber], minlength=len(plan.start))[1:]
        scratch = max(scratch, 2 * n + int((atoms @ live).max(initial=0)))
    held = int(ends[-1]) if budget is None else min(int(ends[-1]), 2 * budget)
    plan_bytes = sum(a.nbytes for a in plan if isinstance(a, np.ndarray))
    return held * 3 // 2 + scratch + -(-plan_bytes // _ROW_BYTES)


def _sum_slice(mu: SparseMeasure, p: _Plan, runs, base: int, n: int, firsts, offsets, last) -> np.ndarray:
    """The n window slots from slot `base` of mu * nu, fed by the runs
    `runs` (a stretch of `p.order`), summed without sorting a row.

    Sorted stably by row, the runs of each row come in window order, so
    their slots ascend. The fibers whose own window lies in the slice are a
    contiguous range of mu's fibers, and their dense blocks are one
    `np.convolve` of the kernel over that stretch of the fibers laid end to
    end in zero-padded blocks (`offsets`), with the K - 1 zeros before it
    (none before fiber 0): each output is the same dot product as in one
    `np.convolve` over every fiber, so bit for bit the same, and no mass
    carries from one fiber into the next. The atoms of the fibers each
    upper part moves into the slice are gathered at the part's first atom
    and dropped after its last (`last`); each other atom y of nu, in spiral
    order, adds mu(x) * nu(y) into the slot of x * y for every such x.
    Right multiplication by one y is injective, so no slot gains two rows
    from one y.
    """
    dtype = mu._masses.dtype
    K, n_rows = len(p.kernel), len(p.start)
    acc = np.zeros(n, dtype=dtype)
    row, fiber = np.divmod(runs, len(p.counts))
    by_row = np.argsort(row.astype(np.min_scalar_type(n_rows)), kind="stable")  # a radix sort
    cuts = np.searchsorted(row[by_row], np.arange(n_rows + 1))
    fibers = [fiber[by_row[cuts[r] : cuts[r + 1]]] for r in range(n_rows)]
    if len(fibers[0]):
        f0, f1 = int(fibers[0][0]), int(fibers[0][-1]) + 1
        lead = K - 1 if f0 else 0
        a0, a1 = int(firsts[f0]), int(firsts[f1 - 1] + p.counts[f1 - 1])
        off = offsets[f0:f1] - offsets[f0]
        dense = np.zeros(lead + int(off[-1] + p.blocks[f1 - 1]), dtype=dtype)
        dense[lead + np.repeat(off, p.counts[f0:f1]) + p.rel[a0:a1]] = mu._masses[a0:a1]
        dense = np.convolve(dense, p.kernel)[lead : len(dense)]
        # each block's slots, as steps of 1 from its first slot
        at = np.ones(len(dense), dtype=np.intp)
        at[off] = p.start[0, f0:f1] - base
        at[off[1:]] -= p.start[0, f0 : f1 - 1] - base + p.blocks[f0 : f1 - 1] - 1
        acc[np.cumsum(at, out=at)] = dense
        del dense, at
    gathered = {}
    for j, (wy, u, s) in enumerate(zip(p.others, p.part.tolist(), p.shift.tolist())):
        if u not in gathered:
            f = fibers[1 + u]
            k = p.counts[f]
            at = np.repeat(firsts[f] - (np.cumsum(k) - k), k) + np.arange(int(k.sum()))
            gathered[u] = np.repeat(p.start[1 + u, f] - base, k) + p.rel[at], mu._masses[at]
        slots, weights = gathered[u] if j < last[u] else gathered.pop(u)
        # unbuffered, in index order; the indices are distinct
        np.add.at(acc, slots + s, weights * wy)
    return acc


def _stream_windows(mu: SparseMeasure, p: _Plan, budget: int | None, row_bytes: int):
    """mu * nu summed slice by slice into the windows of plan `p`, keeping a
    running top-`budget` set; no row is sorted and no slot outlives its slice.

    The windows are cut into consecutive slices (`_slices`); the runs of
    windows w0..w1 - 1 are order[at[w0] : at[w1]], and `_sum_slice` sums
    them. Each code sums its line-shift rows in `np.convolve`'s order, then
    nu's other atoms in spiral order, where the sort route sums every row in
    nu's spiral order: float sums agree to a few ulps, not bit for bit, and
    exact sums are equal.

    Each slice's slots of weight > 0 join a running set in window order (so
    ascending). With a budget, once the set passes 2 * budget it keeps only
    the slots at or above its budget-th largest weight, every tie included,
    and later slots below that cutoff are dropped as they are made. No slot
    the final top-`budget` keeps is ever below a running cutoff, so
    `_select_top` on the set keeps exactly the atoms it would keep from
    every slot, by the same tie rule. The pruned weight is the sum of every
    slot less what is kept; once the set has been cut that sum is taken
    slice by slice, so a float sum is grouped differently and may move in
    its last bits.

    The live set (`_live_rows`) is priced by `_check_rows` before anything
    is allocated. Returns the kept codes, ascending, their weights and the
    pruned weight.
    """
    ends = np.cumsum(p.wlen)
    bounds = _slices(p.wlen)
    _check_rows(_live_rows(p, bounds, budget), row_bytes)
    runs_at = np.append(p.at, len(p.order))
    firsts = np.cumsum(p.counts) - p.counts  # each fiber's first atom in mu's pool
    offsets = np.cumsum(p.blocks) - p.blocks  # each fiber's block in the zero-padded layout
    last = {u: j for j, u in enumerate(p.part.tolist())}  # each upper part's last other atom
    held_codes = [np.zeros(0, dtype=np.uint64)]
    held_masses = [np.zeros(0, dtype=mu._masses.dtype)]
    held, total, cutoff = 0, 0, None
    for w0, w1 in zip(bounds, bounds[1:]):
        base = int(ends[w0] - p.wlen[w0])
        runs = p.order[runs_at[w0] : runs_at[w1]]
        acc = _sum_slice(mu, p, runs, base, int(ends[w1 - 1]) - base, firsts, offsets, last)
        if budget is not None:
            total += np.sum(acc)
        # a slot below the running cutoff is below the final one too
        keep = np.flatnonzero(acc > 0 if cutoff is None else acc >= cutoff)
        weights = acc[keep]
        del acc
        held += len(keep)
        if budget is not None and held > 2 * budget:
            # cut the set to the slots at or above its budget-th largest weight
            masses = np.concatenate(held_masses + [weights])
            masses.partition(held - budget)
            cutoff = masses[held - budget]
            del masses
            for i, m in enumerate(held_masses):
                top = m >= cutoff
                held_codes[i], held_masses[i] = held_codes[i][top], m[top]
            top = weights >= cutoff
            keep, weights = keep[top], weights[top]
            held = sum(map(len, held_masses)) + len(keep)
        codes = np.repeat(p.origin[w0:w1], p.wlen[w0:w1])[keep]
        keep += base
        codes += keep.view(np.uint64)
        held_codes.append(codes)
        held_masses.append(weights)
    # one array at a time, so the chunks and their copy never coexist whole
    codes = np.concatenate(held_codes)
    del held_codes
    masses = np.concatenate(held_masses)
    del held_masses
    if budget is None or cutoff is None and held <= budget:
        return codes, masses, 0
    # an uncut set is every slot, so `_select_top` sums it as it always has
    codes, masses, _, pruned = _select_top(
        mu.group, codes, masses, {}, budget, mu.mode, None if cutoff is None else total
    )
    return codes, masses, pruned


def _products(mu: SparseMeasure, nu: SparseMeasure, budget: int | None):
    """mu * nu in stored weights, the kernel both ledgers share, cut to the
    top `budget` atoms by `_select_top`'s rule.

    Returns the sorted pool codes, their weights and the side dict of the
    kept atoms, every atom placed by the placement rule and of positive
    weight, and the pruned weight (0 when nothing is pruned); the weights
    are masses in float mode and numerators over mu._den * nu._den in exact
    mode, as the `_dtype` of mu's numerator sum times nu's, to which both
    operands' weights are cast first.

    When `_window_plan` holds, the product is streamed through fiber windows
    (`_stream_windows`) and has no side atoms. Otherwise nu's atoms take the
    sort route in spiral order. A run of consecutive pool atoms is one
    `mul(mu_codes[None, :], y_codes[:, None])` of at most
    max(|mu pool|, `_BLOCK_ROWS`) rows, priced before it is made, raveled
    y-major with masses `np.multiply.outer(w_y, mu_masses)`, so each atom's
    rows come in mu's pool order. A side atom of nu does not encode, so
    `mul` cannot take it: its rows with mu's pool are priced the same way
    and go to the side dict by the group law, as do rows that do not
    encode and mu's side atoms, y by y. Pending rows are flushed through
    `_dedup` once they pass 32 rows per atom of mu's pool (at least 2^14, at
    most `_FLUSH_ROWS`), so about 32 of nu's atoms wait at a time rather
    than all of them. The flush schedule never changes a sum. The whole
    product is then cut by `_select_top`.
    """
    g = mu.group
    codec = g.codec()
    dtype = _dtype(mu.mode, mu._weight_sum() * nu._weight_sum())
    mu, nu = (
        SparseMeasure._from_pool(
            g, p._codes, p._masses.astype(dtype, copy=False), p._side, p.lost_mass, p.mode, p._den
        )
        for p in (mu, nu)
    )
    mu_codes, mu_masses = mu._codes, mu._masses
    # a row of Python ints also points to a numerator, priced at the size
    # of the product's denominator
    row_bytes = _ROW_BYTES + (sys.getsizeof(mu._den * nu._den) if dtype is object else 0)
    window = _window_plan(mu, nu)
    if window is not None:
        codes, masses, pruned = _stream_windows(mu, window, budget, row_bytes)
        return codes, masses, {}, pruned

    acc_codes = np.zeros(0, dtype=np.uint64)
    acc_masses = np.zeros(0, dtype=dtype)
    pend_codes: list[np.ndarray] = [acc_codes]
    pend_masses: list[np.ndarray] = [acc_masses]
    pend_rows = 0
    flush_rows = min(_FLUSH_ROWS, max(1 << 14, 32 * len(mu_codes)))
    # atoms of nu a `mul` call takes: at most max(|mu pool|, 2^12) rows
    block = max(len(mu_codes), _BLOCK_ROWS) // max(len(mu_codes), 1)
    side: dict = {}

    def flush():
        nonlocal acc_codes, acc_masses, pend_codes, pend_masses, pend_rows
        acc_codes, acc_masses = _dedup(np.concatenate(pend_codes), np.concatenate(pend_masses))
        pend_codes = [acc_codes]
        pend_masses = [acc_masses]
        pend_rows = 0

    def add(codes, masses):
        nonlocal pend_rows
        pend_codes.append(codes)
        pend_masses.append(masses)
        pend_rows += len(codes)

    def spill(y, wy, bad):
        # mu's pool atoms whose product with y does not encode, then mu's side
        for c, mx in zip(mu_codes[bad].tolist(), mu_masses[bad].tolist()):
            z = g.mul(codec.decode_one(c), y)
            side[z] = side.get(z, 0) + mx * wy
        for x, mx in mu._side.items():
            z = g.mul(x, y)
            side[z] = side.get(z, 0) + mx * wy

    # nu's atoms in spiral order, each with its pool index, or None on the side
    decode = codec.decode_one if codec is not None else None
    atoms = [(decode(c), i) for i, c in enumerate(nu._codes.tolist())]
    atoms = _spiral(g, atoms + [(y, None) for y in nu._side])
    weights = nu._masses.tolist()
    for pooled, seq in groupby(atoms, key=lambda a: a[1] is not None):
        seq = list(seq)
        step = block if pooled else 1
        for k in range(0, len(seq), step):
            run = seq[k : k + step]
            if pooled:
                # consecutive pool atoms of nu: one `mul` call, its rows y-major
                at = np.array([i for _, i in run])
                _check_rows(len(acc_codes) + pend_rows + len(run) * len(mu_codes), row_bytes)
                out, ok = codec.mul(mu_codes[None, :], nu._codes[at][:, None])
                masses = np.multiply.outer(nu._masses[at], mu_masses)
                all_ok = bool(ok.all())
                if all_ok:
                    add(out.ravel(), masses.ravel())
                else:
                    add(out[ok], masses[ok])
                if mu._side or not all_ok:
                    for (y, i), row in zip(run, ok):
                        spill(y, weights[i], ~row)
            else:
                # a side atom of nu never encodes: every row takes the group law
                [(y, _)] = run
                _check_rows(len(acc_codes) + pend_rows + len(mu_codes), row_bytes)
                spill(y, nu._side[y], np.ones(len(mu_codes), dtype=bool))
            if pend_rows >= flush_rows:
                flush()
    # an atom the codec cannot hold times y can land back in codec range;
    # the placement rule sends those products to the packed pool, so no
    # element is split across both pools when the budget ranks atoms
    placed = _place(codec, side, dtype)
    _check_rows(len(acc_codes) + pend_rows + len(placed[0]), row_bytes)
    add(*placed)
    flush()
    # products that underflow to zero are not atoms (from_items drops them too)
    held = acc_masses > 0
    codes, masses, side = acc_codes[held], acc_masses[held], {z: m for z, m in side.items() if m > 0}
    if budget is None or len(codes) + len(side) <= budget:
        return codes, masses, side, 0
    return _select_top(g, codes, masses, side, budget, mu.mode)


def _convolve_fast(mu: SparseMeasure, nu: SparseMeasure, budget: int | None) -> SparseMeasure:
    """The float ledger over `_products`: pruned mass is added as a float."""
    codes, masses, side, pruned = _products(mu, nu, budget)
    lost = _propagated_lost(mu, nu) + float(pruned)
    return SparseMeasure._from_pool(mu.group, codes, masses, side, lost)


def _convolve_exact(mu: SparseMeasure, nu: SparseMeasure, budget: int | None) -> SparseMeasure:
    """The exact ledger over `_products`: numerators over mu._den * nu._den."""
    den = mu._den * nu._den
    codes, nums, side, pruned = _products(mu, nu, budget)
    lost = _propagated_lost(mu, nu) + Fraction(int(pruned), den)  # the pruned weight, exactly
    return SparseMeasure._from_pool(mu.group, codes, nums, side, lost, "exact", den)


def convolve(
    mu: SparseMeasure,
    nu: SparseMeasure,
    budget: int | None = None,
) -> SparseMeasure:
    """mu * nu with budget pruning.

    Both modes take the packed kernel `_products`, which differs from
    `convolve_reference` (the test oracle) only in summation grouping (so
    not at all in exact mode); on a group without a codec the pool is empty
    and every product goes to the side dict.
    """
    _check_compat(mu, nu)
    if budget is not None and budget < 1:
        raise BudgetError(f"budget must be >= 1, got {budget}")
    pairs = len(mu) * len(nu)
    if pairs > _PAIR_LIMIT:
        raise ConvolutionRefused(f"convolution of {len(mu)} x {len(nu)} atoms refused")
    if mu.mode == "exact":
        return _convolve_exact(mu, nu, budget)
    return _convolve_fast(mu, nu, budget)


# -- translations and distance ----------------------------------------------


def _pool_l1(codes_a, masses_a, codes_b, masses_b):
    """L1 distance sum_c |a(c) - b(c)| between two packed pools, in stored weights."""
    _, sums = _dedup(np.concatenate([codes_a, codes_b]), np.concatenate([masses_a, -masses_b]))
    return np.sum(np.abs(sums))


def _dict_l1(a: dict, b: dict, mode: str):
    """L1 distance sum_z |a(z) - b(z)| between two dicts of stored weights."""
    return _mass_sum([abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()], mode)


def tv_left_translate(mu: SparseMeasure, t) -> tuple:
    """tv_distance(t . mu, mu), where (t . mu)(A) = mu(t^-1 A), without building t . mu.

    On a codec group, t is encoded once and the pool moves in one
    vectorized pass, `mul` of t's code by every pool code. Pool atoms pushed
    out of codec range (all of them when t does not encode) and the side
    atoms move by the group law, and the placement rule sends those that
    land back in range to the pool. The value is the pool L1 plus the side-dict
    L1. A codec-less group keeps every atom in the side dict, so only the
    dict L1 runs. Either way it sums stored weights and turns the sum into a
    mass once. `t` is not validated here: callers check it once, at the
    boundary.
    """
    grp = mu.group
    codec = grp.codec()
    # the L1 sums at most twice mu's weight
    dtype = _dtype(mu.mode, 2 * mu._weight_sum())
    stored = mu._masses.astype(dtype, copy=False)
    # left multiplication is a bijection, so no two atoms land on one element
    moved = {grp.mul(t, x): m for x, m in mu._side.items()}
    codes, masses = mu._codes, stored  # both empty without a codec
    if codec is not None:
        t_code = codec.encode_one(t)
        if t_code is None:
            shifted, ok = mu._codes, np.zeros(len(mu._codes), dtype=bool)
        else:
            shifted, ok = codec.mul(np.array([t_code], dtype=np.uint64), mu._codes)
        for c, m in zip(mu._codes[~ok].tolist(), mu._masses[~ok].tolist()):
            moved[grp.mul(t, codec.decode_one(c))] = m
        back, weights = _place(codec, moved, dtype)
        codes = np.concatenate([shifted[ok], back])
        masses = np.concatenate([stored[ok], weights])
    value = _pool_l1(codes, masses, mu._codes, stored) + _dict_l1(moved, mu._side, mu.mode)
    return mu._mass(value), mu.lost_mass + mu.lost_mass


def tv_distance(mu: SparseMeasure, nu: SparseMeasure):
    """L1 distance between the located parts, with an uncertainty bracket.

    Returns (value, bracket): the distance between the ideal measures is
    value +- bracket, where bracket = mu.lost_mass + nu.lost_mass.
    """
    _check_compat(mu, nu)
    # stored weights brought over the one denominator mu._den * nu._den
    # (both 1 in float mode)
    a, b = nu._den, mu._den
    # the L1 sums at most the two cross-scaled weights, and the scales are
    # operands too (one can pass 2^63 when the other measure has no atoms)
    dtype = _dtype(mu.mode, max(a, b, mu._weight_sum() * a + nu._weight_sum() * b))
    scaled = [{x: m * k for x, m in p._side.items()} for p, k in ((mu, a), (nu, b))]
    value = _dict_l1(*scaled, mu.mode)
    pools = [p._masses.astype(dtype, copy=False) * k for p, k in ((mu, a), (nu, b))]
    value += _pool_l1(mu._codes, pools[0], nu._codes, pools[1])
    value = Fraction(int(value), a * b) if mu.mode == "exact" else float(value)
    return value, mu.lost_mass + nu.lost_mass
