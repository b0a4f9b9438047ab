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


def _mix64_np(x: np.ndarray) -> np.ndarray:
    """`mix64` elementwise: one copy of x, mixed in place with one scratch array."""
    z = np.array(x, dtype=np.uint64)
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        np.add(z, np.uint64(_GAMMA), out=z)
        for shift, mult in ((30, _M1), (27, _M2)):
            np.right_shift(z, np.uint64(shift), out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, np.uint64(mult), out=z)
        np.right_shift(z, np.uint64(31), out=t)
        np.bitwise_xor(z, t, out=z)
    return z


class CounterRng:
    """Stateless uniform stream addressed by (key, counter)."""

    def __init__(self, seed: int, *labels: int | str):
        self.key = derive(seed, *labels)

    def uniform_at(self, counter: int) -> float:
        return (mix64((counter ^ self.key) & _MASK) >> 11) * 2.0**-53

    def uniforms_at(self, counters: np.ndarray) -> np.ndarray:
        """Random-access uniforms at arbitrary counters (vectorized)."""
        c = counters.astype(np.uint64)
        return (_mix64_np(c ^ np.uint64(self.key)) >> np.uint64(11)) * np.float64(2.0**-53)
