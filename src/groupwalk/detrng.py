"""Counter-based deterministic random streams.

Every stochastic component draws from a splitmix64 finalizer applied to
(derived key, counter). Random access by counter means schedules and trial
streams can be evaluated at any index, in any order, on any worker, and
always produce the same values. The split rule for substreams is
`derive(seed, *labels)`: labels are folded into the key one mix at a time.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_BLOCK = 1 << 15  # words `_mix64_np` mixes at once: 256 KiB, twice that with its scratch


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z = (x + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _fold_label(key: int, label: int | str) -> int:
    if isinstance(label, str):
        h = 0
        for ch in label.encode("utf-8"):
            h = mix64(h ^ ch)
        label = h
    return mix64(key ^ (label & _MASK))


def derive(seed: int, *labels: int | str) -> int:
    """Derive a substream key from a master seed and a label path."""
    key = mix64(seed & _MASK)
    for lab in labels:
        key = _fold_label(key, lab)
    return key


def _mix64_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`mix64` elementwise into `out`: by default a new uint64 array of x's
    shape, and x is left as it is.

    `out` may be a C-ordered uint64 array of x's shape that does not
    overlap x, or x itself, which is then mixed in place. The work goes one
    `_BLOCK`-word block at a time: the block is copied into the output
    (unless it is x), whose flat view is its own memory, and mixed there in
    nine passes with one block-sized scratch array, so it stays in cache
    from the copy to the last pass instead of crossing memory ten times.
    Each word gets the same arithmetic as in full-array passes, so the
    output is the same bit for bit for every block size. Returns `out`.
    """
    if out is None:
        out = np.empty(np.shape(x), dtype=np.uint64)
    flat = out.reshape(-1)  # a view: `out` is C-ordered
    src = None if out is x else np.ascontiguousarray(x).reshape(-1)  # a view unless x is not C-ordered
    scratch = np.empty(min(flat.size, _BLOCK), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for lo in range(0, flat.size, _BLOCK):
            b = flat[lo : lo + _BLOCK]
            t = scratch[: b.size]
            if src is not None:
                b[...] = src[lo : lo + _BLOCK]
            np.add(b, np.uint64(_GAMMA), out=b)
            for shift, mult in ((30, _M1), (27, _M2)):
                np.right_shift(b, np.uint64(shift), out=t)
                np.bitwise_xor(b, t, out=b)
                np.multiply(b, np.uint64(mult), out=b)
            np.right_shift(b, np.uint64(31), out=t)
            np.bitwise_xor(b, t, out=b)
    return out


def _uniforms(x: np.ndarray) -> np.ndarray:
    """`uniform_at`'s float for each word of x: the top 53 bits of `mix64(x)`, scaled.

    The floats are written over the mixed words a block at a time, so no
    second array of x's size is allocated.
    """
    z = _mix64_np(x)
    u = z.view(np.float64)
    words, floats = z.reshape(-1), u.reshape(-1)
    for lo in range(0, words.size, _BLOCK):
        b = words[lo : lo + _BLOCK]
        np.right_shift(b, np.uint64(11), out=b)
        np.multiply(b, np.float64(2.0**-53), out=floats[lo : lo + _BLOCK])
    return u


def _word_uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms of mixed words, as `uniform_at` makes them: the top 53
    bits times 2^-53, exact in float64."""
    return (words >> np.uint64(11)) * 2.0**-53


def _word_cuts(m: np.ndarray) -> np.ndarray:
    """Per threshold m >= 1, the cut c with `w > c` exactly when the mixed
    word w's uniform is at least m * 2^-53: c = (m << 11) - 1 in uint64. At
    m = 2^53 the cut wraps to 2^64 - 1, which no word exceeds."""
    return (m.astype(np.uint64) << np.uint64(11)) - np.uint64(1)


class CounterRng:
    """Stateless uniform stream addressed by (key, counter)."""

    def __init__(self, seed: int, *labels: int | str):
        self.key = derive(seed, *labels)

    def uniform_at(self, counter: int) -> float:
        return (mix64((counter ^ self.key) & _MASK) >> 11) * 2.0**-53

    def uniforms_at(self, counters: np.ndarray) -> np.ndarray:
        """Random-access uniforms at arbitrary counters (vectorized)."""
        return _uniforms(np.asarray(counters, dtype=np.uint64) ^ np.uint64(self.key))
