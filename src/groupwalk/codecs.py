"""Packed int64 element codecs backing the vectorized convolution kernel.

A codec maps canonical elements of one group into disjoint bit fields of a
single unsigned 64-bit code, so large measures can live in numpy arrays and
multiplication by a fixed element, on either side, becomes a handful of
vector ops. Codes are an implementation detail: any element a codec cannot
represent (word too long, coordinate out of range) is flagged through the
`ok` masks and handled by the dict side channel in the measures module.

Free-group codes store the word reversed (last letter in the low bits) with
the length n in the top subfield, so appending or cancelling one letter is a
fixed shift. The word's first letter sits at bit (n-1)*letter_bits, so
prepending or cancelling one letter is a per-element shift: `mul_left`
(t * codes) runs on the packed codes like `mul_right` (codes * t) and flags
out-of-range products the same way. Abelian and cyclic codecs are
commutative, so their `mul_left` is their `mul_right`, and a product codec
applies each factor's. Integer coordinates are stored biased to keep codes
unsigned.

`line_bits` is the width of a codec's lowest field when that field is one
biased integer coordinate, else None. Right-multiplying by an element that
is the identity outside that field adds a constant to the field, so the
measures module can convolve such elements as a dense 1-D kernel.
"""

from __future__ import annotations

import numpy as np

from groupwalk.errors import SpecMismatchError

U64 = np.uint64


def _u(x: int) -> np.uint64:
    return np.uint64(x)


class FreeCodec:
    """Reduced words of a free group in one bit field.

    Layout (within `width` bits): [length : lbits][letters, last at bit 0].
    A word of n letters has its first (top) letter at bit (n-1)*letter_bits.
    """

    lbits = 6
    line_bits = None

    def __init__(self, group, width: int = 63):
        self.width = width
        self.letter_bits = max(1, (2 * group.rank - 1).bit_length())
        self.shift_len = width - self.lbits
        self.max_len = self.shift_len // self.letter_bits
        if self.max_len < 4 or self.max_len >= (1 << self.lbits):
            raise SpecMismatchError(f"free codec layout infeasible: rank {group.rank}, width {width}")
        self._val_mask = _u((1 << self.shift_len) - 1)
        self._letter_mask = _u((1 << self.letter_bits) - 1)
        self._letter_rank = group._letter_rank

    @staticmethod
    def _rank_letter(r: int) -> int:
        g = r // 2 + 1
        return g if r % 2 == 0 else -g

    def encode_one(self, word) -> int | None:
        if len(word) > self.max_len:
            return None
        val = 0
        for l in word:
            val = (val << self.letter_bits) | self._letter_rank(l)
        return (len(word) << self.shift_len) | val

    def decode_one(self, code: int):
        n = code >> self.shift_len
        val = code & int(self._val_mask)
        b = self.letter_bits
        return tuple(
            self._rank_letter((val >> ((n - 1 - i) * b)) & ((1 << b) - 1))
            for i in range(n)
        )

    def _mul_right_letter(self, codes: np.ndarray, letter: int):
        """Append one letter (with free cancellation) to every code."""
        b = _u(self.letter_bits)
        sl = _u(self.shift_len)
        n = codes >> sl
        val = codes & self._val_mask
        cancel = (n > _u(0)) & ((val & self._letter_mask) == _u(self._letter_rank(-letter)))
        ok = cancel | (n < _u(self.max_len))
        appended = ((n + _u(1)) << sl) | (((val << b) & self._val_mask) | _u(self._letter_rank(letter)))
        cancelled = ((n - _u(1)) << sl) | (val >> b)
        return np.where(cancel, cancelled, appended), ok

    def _mul_left_letter(self, codes: np.ndarray, letter: int):
        """Prepend one letter (with free cancellation) to every code."""
        b = _u(self.letter_bits)
        sl = _u(self.shift_len)
        n = codes >> sl
        val = codes & self._val_mask
        nonempty = n > _u(0)
        top = (n - nonempty) * b  # bit of the first letter; 0 for the empty word
        cancel = nonempty & (((val >> top) & self._letter_mask) == _u(self._letter_rank(-letter)))
        ok = cancel | (n < _u(self.max_len))
        prepended = ((n + _u(1)) << sl) | val | (_u(self._letter_rank(letter)) << (n * b))
        cancelled = ((n - _u(1)) << sl) | (val & ((_u(1) << top) - _u(1)))
        return np.where(cancel, cancelled, prepended), ok

    def mul_right(self, codes: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
        """codes * y elementwise; second array marks representable results."""
        ok = np.ones(len(codes), dtype=bool)
        out = codes
        for letter in y:
            out, o = self._mul_right_letter(out, letter)
            ok &= o
        return out, ok

    def mul_left(self, codes: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
        """t * codes elementwise, t's letters applied last to first; `ok` as in `mul_right`."""
        ok = np.ones(len(codes), dtype=bool)
        out = codes
        for letter in reversed(t):
            out, o = self._mul_left_letter(out, letter)
            ok &= o
        return out, ok


class AbelianCodec:
    """Integer coordinates in equal fields, each stored biased so it stays unsigned."""

    def __init__(self, group, coord_width: int | None = None):
        d = group.rank
        w = coord_width if coord_width is not None else 62 // d
        if w < 10:
            raise SpecMismatchError(f"abelian codec infeasible for rank {d}")
        self._bias = 1 << (w - 1)
        self._limit = 1 << w
        self._shifts = [w * (d - 1 - i) for i in range(d)]
        self._mask = _u((1 << w) - 1)
        self.width = w * d
        self.line_bits = w

    def encode_one(self, x) -> int | None:
        code = 0
        for sh, v in zip(self._shifts, x):
            f = v + self._bias
            if not 0 <= f < self._limit:
                return None
            code |= f << sh
        return code

    def decode_one(self, code: int):
        return tuple(((code >> sh) & int(self._mask)) - self._bias for sh in self._shifts)

    def mul_right(self, codes: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
        ok = np.ones(len(codes), dtype=bool)
        out = np.zeros_like(codes)
        for sh, v in zip(self._shifts, y):
            s = ((codes >> _u(sh)) & self._mask).astype(np.int64) + v
            ok &= (s >= 0) & (s < self._limit)
            out |= s.astype(U64) << _u(sh)
        return out, ok

    mul_left = mul_right  # the group is commutative


class CyclicGroupCodec:
    """Residues mod n, stored directly."""

    line_bits = None

    def __init__(self, group):
        if group.n >= (1 << 61):
            raise SpecMismatchError("cyclic codec limited to n < 2**61")
        self.n = group.n
        self.width = max(1, (group.n - 1).bit_length())

    def encode_one(self, v: int) -> int | None:
        return v

    def decode_one(self, code: int) -> int:
        return int(code)

    def mul_right(self, codes: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray]:
        out = (codes + _u(v % self.n)) % _u(self.n)
        return out, np.ones(len(codes), dtype=bool)

    mul_left = mul_right  # the group is commutative


class ProductCodec:
    """Component codecs in disjoint bit fields, factor 0 in the high bits.

    Exactly one free factor may act as the flexible field soaking up the
    leftover width; fixed-width factors take 16 bits per integer coordinate.
    """

    def __init__(self, group):
        from groupwalk import groups

        subs: list = []
        for f in group.factors:
            if isinstance(f, groups.FreeGroup):
                subs.append(None)  # flexible, sized below
            elif isinstance(f, groups.FreeAbelian):
                subs.append(AbelianCodec(f, coord_width=16))
            elif isinstance(f, groups.CyclicGroup):
                subs.append(CyclicGroupCodec(f))
            else:
                raise SpecMismatchError("no packed codec for this factor")
        if subs.count(None) > 1:
            raise SpecMismatchError("at most one free factor can be packed")
        fixed = sum(s.width for s in subs if s is not None)
        if None in subs:
            flex = 63 - fixed
            if flex < 20:
                raise SpecMismatchError("not enough width for the free factor")
            subs = [FreeCodec(f, width=flex) if s is None else s for f, s in zip(group.factors, subs)]
        elif fixed > 63:
            raise SpecMismatchError("product codec exceeds 63 bits")
        self._subs = subs
        self._shifts = []
        acc = sum(s.width for s in subs)
        for s in subs:
            acc -= s.width
            self._shifts.append(acc)
        self._masks = [_u((1 << s.width) - 1) for s in subs]
        self.line_bits = subs[-1].line_bits

    def encode_one(self, x) -> int | None:
        code = 0
        for sub, sh, xi in zip(self._subs, self._shifts, x):
            c = sub.encode_one(xi)
            if c is None:
                return None
            code |= c << sh
        return code

    def decode_one(self, code: int):
        return tuple(
            sub.decode_one((code >> sh) & int(m))
            for sub, sh, m in zip(self._subs, self._shifts, self._masks)
        )

    def _fieldwise(self, codes: np.ndarray, y, left: bool) -> tuple[np.ndarray, np.ndarray]:
        ok = np.ones(len(codes), dtype=bool)
        out = np.zeros_like(codes)
        for sub, sh, m, yi in zip(self._subs, self._shifts, self._masks, y):
            mul = sub.mul_left if left else sub.mul_right
            field, o = mul((codes >> _u(sh)) & m, yi)
            ok &= o
            out |= field << _u(sh)
        return out, ok

    def mul_right(self, codes: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
        return self._fieldwise(codes, y, left=False)

    def mul_left(self, codes: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
        return self._fieldwise(codes, t, left=True)


def codec_for(group) -> FreeCodec | AbelianCodec | CyclicGroupCodec | ProductCodec | None:
    """Best packed codec for the group, or None when only dicts will do."""
    from groupwalk import groups

    try:
        if isinstance(group, groups.FreeGroup):
            return FreeCodec(group)
        if isinstance(group, groups.FreeAbelian):
            return AbelianCodec(group)
        if isinstance(group, groups.CyclicGroup):
            return CyclicGroupCodec(group)
        if isinstance(group, groups.DirectProduct):
            return ProductCodec(group)
    except SpecMismatchError:
        return None
    return None
