"""Sparse nonnegative measures on countable groups, with mass accounting.

A SparseMeasure is a finite list of weighted atoms plus a `lost_mass`
ledger: every operation that drops atoms (support budgets, truncations)
adds the dropped weight to the ledger instead of silently renormalizing.
Total-variation distances therefore come back as a pair
``(value, bracket)`` where the true distance between the ideal measures
lies within ``value +- bracket``.

Two arithmetic modes, never mixed:

* ``"exact"`` - Fraction weights, bit-exact results;
* ``"float"`` - float64 weights; every convolution runs on one kernel,
  packed uint64 codes (see `groupwalk.codecs`) plus a side dict, so
  results are identical for any worker count. A group without a codec
  takes the same kernel with an empty pool.

Every measure has one storage layout: a packed pool of sorted uint64
codes with float64 masses, plus a side dict. One placement rule decides
where an atom goes. In float mode an atom the group's codec can encode
goes in the pool; every other atom goes in the side dict: all atoms of
an exact measure or of a codec-less group, and atoms whose word or
coordinate does not fit the codec's fields.

A float convolution mu * nu on a codec group splits nu's pool in two.
The line shifts are the atoms equal to the identity outside the codec's
lowest field, when that field is one biased integer coordinate
(`line_bits`); they only move that coordinate. They take the dense route:
each fiber of mu (atoms that agree above the field) gets a zero-padded
block of span + K - 1 slots, and one `np.convolve` with the line shifts as
a length-K kernel yields the products with their codes already sorted.
Every other atom of nu takes the sort route: `mul_right` on mu's codes,
rows flushed through `_dedup` (a stable sort, then `np.bincount`), which
sums each code's rows in the order they were produced. The dense route is
chosen from the inputs alone, when every product stays inside the field,
the dense length L is at most the rows the line shifts add to the sort
route, and L * K <= rows * log2(rows); otherwise the line shifts take the
sort route as well. Neither route keeps an atom whose mass sums to 0, and
a convolution whose accumulator or dense window would pass `_ACC_BYTES`
raises BudgetError.

Atom order everywhere is the group's spiral order (word length, then the
family's lexicographic rank); all tie-breaks reduce to it.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from groupwalk.errors import BudgetError, ConvolutionRefused, SpecMismatchError
from groupwalk.groups import GSet, Group

_FLUSH_ROWS = 1 << 22  # pending-row threshold before a dedup flush
_TASKS_PER_THREAD = 2  # mul_right results in flight per worker thread
_PAIR_LIMIT = 6 * 10**9  # refuse convolutions beyond this many pairs
_ACC_BYTES = 1 << 31  # refuse a convolution whose accumulator would pass this
_ROW_BYTES = 16  # one uint64 code and one float64 mass

# the empty pool, shared so exact measures skip two array allocations each;
# read-only, so sharing is safe
_NO_CODES = np.zeros(0, dtype=np.uint64)
_NO_MASSES = np.zeros(0, dtype=np.float64)
_NO_CODES.flags.writeable = False
_NO_MASSES.flags.writeable = False


def _zero(mode: str):
    return Fraction(0) if mode == "exact" else 0.0


def _mass_sum(values, mode: str):
    return sum(values, Fraction(0)) if mode == "exact" else math.fsum(values)


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


class SparseMeasure:
    """Finitely supported measure; see the module docstring for the contract.

    Every measure stores its atoms in a packed pool, `_codes` (uint64,
    strictly ascending) with `_masses` (float64), and a dict `_side`. The
    placement rule: in float mode an atom the group's codec can encode lives
    in the pool, and every other atom lives in `_side`. So exact measures
    and measures on codec-less groups keep every atom in `_side`, and no
    element is ever in both.
    """

    __slots__ = ("group", "mode", "lost_mass", "_codes", "_masses", "_side")

    def __init__(self, group: Group, mode: str = "float", *, lost_mass=None):
        if mode not in ("float", "exact"):
            raise SpecMismatchError(f"unknown mode {mode!r}")
        self.group = group
        self.mode = mode
        self.lost_mass = _zero(mode) if lost_mass is None else _coerce_mass(lost_mass, mode)
        self._codes: np.ndarray = _NO_CODES
        self._masses: np.ndarray = _NO_MASSES
        self._side: dict = {}

    # -- constructors --------------------------------------------------

    @classmethod
    def from_items(cls, group: Group, items, mode: str = "float", lost_mass=None) -> "SparseMeasure":
        mu = cls(group, mode, lost_mass=lost_mass)
        data: dict = {}
        for x, m in items.items() if isinstance(items, dict) else items:
            m = _coerce_mass(m, mode)
            if m < 0:
                raise SpecMismatchError(f"negative weight {m} at {x!r}")
            if m != 0:
                data[x] = data.get(x, _zero(mode)) + m
        for x in data:
            group.validate(x)
        codec = group.codec() if mode == "float" else None
        if codec is None:
            mu._side = data
            return mu
        codes, masses = [], []
        for x, m in data.items():
            c = codec.encode_one(x)
            if c is None:
                mu._side[x] = m
            else:
                codes.append(c)
                masses.append(m)
        codes = np.array(codes, dtype=np.uint64)
        order = np.argsort(codes, kind="stable")
        mu._codes = codes[order]
        mu._masses = np.array(masses, dtype=np.float64)[order]
        return mu

    @classmethod
    def _from_pool(
        cls, group: Group, codes: np.ndarray, masses: np.ndarray, side: dict, lost_mass
    ) -> "SparseMeasure":
        """Float measure from atoms already placed: `codes` sorted, `side` holding the rest."""
        mu = cls(group, "float", lost_mass=lost_mass)
        mu._codes = codes
        mu._masses = masses
        mu._side = side
        return mu

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._codes) + len(self._side)

    def total_mass(self):
        if self.mode == "exact":
            return sum(self._side.values(), Fraction(0))
        return float(np.sum(self._masses)) + math.fsum(self._side.values())

    def as_dict(self) -> dict:
        if not len(self._codes):
            return dict(self._side)
        decode = self.group.codec().decode_one
        out = dict(zip(map(decode, self._codes.tolist()), self._masses.tolist()))
        out.update(self._side)
        return out

    def items_canonical(self) -> list:
        return sorted(self.as_dict().items(), key=lambda kv: self.group.sort_key(kv[0]))

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
            items.append((group.element_from_text(el_txt.strip()), _mass_from_text(m_txt, mode)))
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
    group.validate(x)
    one = Fraction(1) if mode == "exact" else 1.0
    return SparseMeasure.from_items(group, [(x, one)], mode)


def uniform(S, mode: str = "float", group: Group | None = None) -> SparseMeasure:
    """Uniform probability measure on a finite set (GSet or iterable)."""
    if isinstance(S, GSet):
        group = S.group
        elements = list(S.elements)
    else:
        if group is None:
            raise SpecMismatchError("uniform needs a GSet or an explicit group")
        elements = list(S)
    if not elements:
        raise SpecMismatchError("uniform measure on empty set")
    n = len(set(elements))
    w = Fraction(1, n) if mode == "exact" else 1.0 / n
    return SparseMeasure.from_items(group, [(x, w) for x in set(elements)], mode)


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
    ranked = sorted(data.items(), key=lambda kv: group.sort_key(kv[0]))
    ranked.sort(key=lambda kv: kv[1], reverse=True)  # stable: spiral order within ties
    kept = dict(ranked[:budget])
    return kept, _mass_sum([m for _, m in ranked[budget:]], mode)


def _select_top(group: Group, codes: np.ndarray, masses: np.ndarray, side: dict, budget: int):
    """Top-`budget` atoms across the packed pool and the dict side pool.

    Ties at the cutoff mass are resolved by spiral order (packed ties are
    decoded first; an empty pool, as on a codec-less group, has none).
    Returns (codes, masses, side_kept, pruned_mass).
    """
    codec = group.codec()
    total = len(codes) + len(side)
    if total <= budget:
        return codes, masses, side, 0.0
    side_items = sorted(side.items(), key=lambda kv: group.sort_key(kv[0]))
    all_masses = np.concatenate(
        [masses, np.array([m for _, m in side_items], dtype=np.float64)]
    ) if side_items else masses
    cutoff = np.partition(all_masses, total - budget)[total - budget]
    grand = float(np.sum(all_masses))

    above_mask = masses > cutoff
    side_above = [(x, m) for x, m in side_items if m > cutoff]
    n_above = int(np.count_nonzero(above_mask)) + len(side_above)
    need = budget - n_above

    tie_mask = masses == cutoff
    tie_codes = codes[tie_mask]
    tie_pairs = [(codec.decode_one(int(c)), c) for c in tie_codes]
    tied = [(x, cutoff, c) for x, c in tie_pairs] + [
        (x, m, None) for x, m in side_items if m == cutoff
    ]
    tied.sort(key=lambda t: group.sort_key(t[0]))
    kept_tied = tied[:need]

    kept_tie_codes = np.array(
        sorted(int(c) for _, _, c in kept_tied if c is not None), dtype=np.uint64
    )
    new_codes = np.concatenate([codes[above_mask], kept_tie_codes])
    new_masses = np.concatenate(
        [masses[above_mask], np.full(len(kept_tie_codes), cutoff)]
    )
    order = np.argsort(new_codes, kind="stable")
    new_codes = new_codes[order]
    new_masses = new_masses[order]

    side_kept = dict(side_above)
    side_kept.update((x, m) for x, m, c in kept_tied if c is None)
    kept_sum = float(np.sum(new_masses)) + math.fsum(side_kept.values())
    pruned = grand - kept_sum
    return new_codes, new_masses, side_kept, max(pruned, 0.0)


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


def _convolve_exact(mu: SparseMeasure, nu: SparseMeasure) -> dict:
    """Integer-numerator convolution over a common denominator."""
    mu_items = mu.items_canonical()
    nu_items = nu.items_canonical()
    d_mu = math.lcm(*(m.denominator for _, m in mu_items)) if mu_items else 1
    d_nu = math.lcm(*(m.denominator for _, m in nu_items)) if nu_items else 1
    sm = [(x, m.numerator * (d_mu // m.denominator)) for x, m in mu_items]
    sn = [(y, m.numerator * (d_nu // m.denominator)) for y, m in nu_items]
    g = mu.group
    acc: dict = {}
    for x, nx in sm:
        for y, ny in sn:
            z = g.mul(x, y)
            acc[z] = acc.get(z, 0) + nx * ny
    den = d_mu * d_nu
    return {z: Fraction(n, den) for z, n in acc.items()}


def _mul_right_windowed(pool, codec, codes: np.ndarray, ys: list, window: int):
    """codec.mul_right(codes, y) for each y in order, at most `window` in flight.

    Each result holds len(codes) rows, so the window bounds the memory the
    workers can run ahead of the consumer.
    """
    pending: deque = deque()
    for y in ys:
        pending.append(pool.submit(codec.mul_right, codes, y))
        if len(pending) >= window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _dedup(codes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct codes in ascending order, each with the sum of its weights.

    The sort is stable, so each code's weights are summed in input order
    whatever the flush schedule, and timsort merges the already-sorted runs
    the kernel produces instead of re-sorting them.
    """
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    first = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    uniq = codes[first]
    sums = np.bincount(np.cumsum(first) - 1, weights=weights[order], minlength=len(uniq))
    return uniq, sums


def _check_rows(rows: int) -> None:
    """Refuse a convolution whose working set would pass `_ACC_BYTES`."""
    if rows * _ROW_BYTES > _ACC_BYTES:
        raise BudgetError(
            f"convolution needs {rows} rows ({rows * _ROW_BYTES} bytes), over the "
            f"accumulator cap _ACC_BYTES = {_ACC_BYTES} bytes"
        )


def _line_plan(mu: SparseMeasure, nu: SparseMeasure):
    """Inputs of the dense route for mu * nu, or None when the sort route runs.

    The line shifts are nu's pool atoms equal to the identity outside the
    codec's lowest field (`line_bits`), a biased integer coordinate; they
    form one run of nu's sorted codes. The route is taken only when every
    mu pool atom times every line shift stays inside that field, and when
    the dense length L = sum over fibers (span + K - 1) is at most the
    rows the line shifts would add to the sort route, with L * K (the cost
    of the convolution) at most rows * log2(rows) (the cost of sorting them).
    """
    if not len(mu._codes):
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
    z_min, z_max = int(z[0]), int(z[-1])
    K = z_max - z_min + 1
    pos = (mu._codes & np.uint64(field)).astype(np.int64)
    fibers = mu._codes >> np.uint64(b)
    starts = np.flatnonzero(np.concatenate([[True], fibers[1:] != fibers[:-1]]))
    ends = np.append(starts[1:], len(pos)) - 1
    if int(pos[starts].min()) + z_min < 0 or int(pos[ends].max()) + z_max > field:
        return None
    blocks = pos[ends] - pos[starts] + K
    L = int(blocks.sum())
    rows = len(pos) * (hi - lo)
    if L > rows or L * K > rows * math.log2(rows):
        return None
    kernel = np.zeros(K)
    kernel[z - z_min] = nu._masses[lo:hi]
    return slice(lo, hi), kernel, z_min, pos, starts, blocks


def _convolve_lines(mu: SparseMeasure, plan) -> tuple[np.ndarray, np.ndarray]:
    """mu's pool times nu's line shifts as one dense 1-D convolution.

    Each fiber of mu (the codes above the lowest field) gets a zero-padded
    block of `span + K - 1` slots, so one `np.convolve` over all blocks
    never carries mass from one fiber into the next. The codes come out
    sorted; slots whose mass is not > 0 (holes and underflow) are dropped.
    """
    _, kernel, z_min, pos, starts, blocks = plan
    L = int(blocks.sum())
    _check_rows(L)
    offsets = np.cumsum(blocks) - blocks
    shift = pos[starts] - offsets  # field value minus slot, per fiber
    fiber_of = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(pos))))
    window = np.zeros(L)
    window[pos - shift[fiber_of]] = mu._masses
    dense = np.convolve(window, kernel)[:L]
    keep = np.flatnonzero(dense > 0)
    f = np.searchsorted(offsets, keep, side="right") - 1
    base = mu._codes[starts] - pos[starts].astype(np.uint64)  # the fiber, field zeroed
    return base[f] + (keep + shift[f] + z_min).astype(np.uint64), dense[keep]


def _convolve_fast(
    mu: SparseMeasure, nu: SparseMeasure, budget: int | None, threads: int
) -> SparseMeasure:
    g = mu.group
    codec = g.codec()
    mu_codes, mu_masses = mu._codes, mu._masses
    nu_items = nu.items_canonical()

    acc_codes = np.array([], dtype=np.uint64)
    acc_masses = np.array([], dtype=np.float64)
    pend_codes: list[np.ndarray] = [acc_codes]
    pend_masses: list[np.ndarray] = [acc_masses]
    pend_rows = 0
    side: dict = {}

    def flush():
        nonlocal acc_codes, acc_masses, pend_codes, pend_masses, pend_rows
        acc_codes, acc_masses = _dedup(np.concatenate(pend_codes), np.concatenate(pend_masses))
        pend_codes = [acc_codes]
        pend_masses = [acc_masses]
        pend_rows = 0

    def add(codes, masses):
        nonlocal pend_rows
        _check_rows(len(acc_codes) + pend_rows + len(codes))
        pend_codes.append(codes)
        pend_masses.append(masses)
        pend_rows += len(codes)

    plan = _line_plan(mu, nu)
    lines = set()
    if plan is not None:
        lines = {codec.decode_one(c) for c in nu._codes[plan[0]].tolist()}
        add(*_convolve_lines(mu, plan))
    # an empty pool (always so without a codec) has no rows for mul_right
    ys = [y for y, _ in nu_items if y not in lines] if len(mu_codes) else []
    if threads > 1 and len(ys) > 1:
        pool = ThreadPoolExecutor(max_workers=threads)
        results = _mul_right_windowed(pool, codec, mu_codes, ys, threads * _TASKS_PER_THREAD)
    else:
        pool = None
        results = (codec.mul_right(mu_codes, y) for y in ys)

    try:
        for y, wy in nu_items:
            if ys and y not in lines:
                out, ok = next(results)
                if bool(ok.all()):
                    add(out, mu_masses * wy)
                else:
                    add(out[ok], mu_masses[ok] * wy)
                    for i in np.nonzero(~ok)[0]:
                        x = codec.decode_one(int(mu_codes[i]))
                        z = g.mul(x, y)
                        side[z] = side.get(z, 0.0) + float(mu_masses[i]) * wy
            for x, mx in mu._side.items():
                z = g.mul(x, y)
                side[z] = side.get(z, 0.0) + mx * wy
            if pend_rows >= _FLUSH_ROWS:
                flush()
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    # an atom the codec cannot hold times y can land back in codec range;
    # the placement rule sends those products to the packed pool, so no
    # element is split across both pools when the budget ranks atoms
    back = {}
    if codec is not None:
        back = {z: c for z in side if (c := codec.encode_one(z)) is not None}
    if back:
        add(
            np.array(list(back.values()), dtype=np.uint64),
            np.array([side.pop(z) for z in back], dtype=np.float64),
        )
    flush()
    # products that underflow to zero are not atoms (from_items drops them too)
    held = acc_masses > 0
    acc_codes, acc_masses = acc_codes[held], acc_masses[held]
    side = {z: m for z, m in side.items() if m > 0}

    lost = _propagated_lost(mu, nu)
    if budget is not None and len(acc_codes) + len(side) > budget:
        acc_codes, acc_masses, side, pruned = _select_top(
            g, acc_codes, acc_masses, side, budget
        )
        lost += pruned
    return SparseMeasure._from_pool(g, acc_codes, acc_masses, side, lost)


def convolve(
    mu: SparseMeasure,
    nu: SparseMeasure,
    budget: int | None = None,
    threads: int = 1,
) -> SparseMeasure:
    """mu * nu with budget pruning.

    Every float measure takes the packed kernel, which differs from
    `convolve_reference` (the test oracle) only in summation grouping and is
    byte-reproducible for any `threads` value; on a group without a codec
    its pool is empty and every product goes to the side dict.
    """
    _check_compat(mu, nu)
    if budget is not None and budget < 1:
        raise BudgetError(f"budget must be >= 1, got {budget}")
    pairs = len(mu) * len(nu)
    if pairs > _PAIR_LIMIT:
        raise ConvolutionRefused(f"convolution of {len(mu)} x {len(nu)} atoms refused")
    g = mu.group
    if mu.mode == "exact":
        acc = _convolve_exact(mu, nu)
        lost = _propagated_lost(mu, nu)
        if budget is not None and len(acc) > budget:
            acc, pruned = _prune_dict(g, acc, budget, "exact")
            lost = lost + pruned
        return SparseMeasure.from_items(g, acc, "exact", lost_mass=lost)
    return _convolve_fast(mu, nu, budget, threads)


# -- translations and distance ----------------------------------------------


def translate_left(g_el, mu: SparseMeasure) -> SparseMeasure:
    """Pushforward by left multiplication: (g . mu)(A) = mu(g^-1 A)."""
    grp = mu.group
    grp.validate(g_el)
    return SparseMeasure.from_items(
        grp,
        [(grp.mul(g_el, x), m) for x, m in mu.as_dict().items()],
        mu.mode,
        lost_mass=mu.lost_mass,
    )


def tv_left_translate(mu: SparseMeasure, t) -> tuple:
    """tv_distance(translate_left(t, mu), mu) without materializing the translate.

    For central t on a measure held wholly in the packed pool this is a
    single vectorized pass (t*x = x*t); otherwise it falls back to
    translating and comparing two measures.
    """
    grp = mu.group
    grp.validate(t)
    bracket = mu.lost_mass + mu.lost_mass
    if t == grp.identity:
        return (_zero(mu.mode), bracket)
    if not mu._side and len(mu._codes) and grp.is_central(t):
        codec = grp.codec()
        shifted, ok = codec.mul_right(mu._codes, t)
        _, sums = _dedup(
            np.concatenate([shifted[ok], mu._codes]),
            np.concatenate([mu._masses[ok], -mu._masses]),
        )
        value = float(np.sum(np.abs(sums)))
        # atoms pushed out of codec range sit at positions the packed union
        # cannot see; each contributes its whole mass to the difference
        value += float(np.sum(mu._masses[~ok]))
        return value, bracket
    return tv_distance(translate_left(t, mu), mu)


def tv_distance(mu: SparseMeasure, nu: SparseMeasure):
    """L1 distance between the located parts, with an uncertainty bracket.

    Returns (value, bracket): the distance between the ideal measures is
    value +- bracket, where bracket = mu.lost_mass + nu.lost_mass.
    """
    _check_compat(mu, nu)
    bracket = mu.lost_mass + nu.lost_mass
    md, nd = mu._side, nu._side
    zero = _zero(mu.mode)
    value = _mass_sum([abs(md.get(k, zero) - nd.get(k, zero)) for k in md.keys() | nd.keys()], mu.mode)
    if mu.mode == "float":
        _, sums = _dedup(
            np.concatenate([mu._codes, nu._codes]), np.concatenate([mu._masses, -nu._masses])
        )
        value += float(np.sum(np.abs(sums)))
    return value, bracket
