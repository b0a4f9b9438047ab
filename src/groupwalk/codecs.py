"""Packed int64 element codecs backing the vectorized convolution kernel.

A codec maps canonical elements of one group into disjoint bit fields of a
single unsigned 64-bit code, so large measures can live in numpy arrays and
multiplication becomes a handful of vector ops. Codes are an implementation
detail: any element a codec cannot represent (word too long, coordinate out
of range) gets None from `encode_one`, a product that leaves the fields is
flagged through the `ok` mask, and the measures module handles both in its
dict side channel.

Every codec has one multiplication kernel, `mul(xs, ys)`, which multiplies
two code arrays row by row, broadcasting their shapes as a numpy ufunc
does: `mul(xs[None, :], ys[:, None])` is the table of every x * y,
y-major, and a one-element operand multiplies every row by one element on
its side. Both operands are codes, so a multiplier that does not encode
never reaches a codec; its callers multiply by the group law. Its `ok` is
false exactly where the product does not encode, and the code there is
meaningless.

Free-group codes store the word reversed (last letter in the low bits) with
the length n in the top subfield, so x's i-th last letter sits at bit
i*letter_bits and y's first letter at bit (n-1)*letter_bits. `mul` cancels
x's last letters against y's first ones while they are inverse letters,
then joins what is left. Abelian and cyclic codes add their fields; integer
coordinates are stored biased to keep codes unsigned, so one bias is taken
off the sum.

Lamplighter codes hold the biased marker in the low 16 bits and a 47-bit
lamp window above it, lamp p at window bit p + 23, so lamps in [-23, 23]
fit. `mul` XORs y's window, moved by x's marker, into x's and adds the
markers. A product codec applies each factor's `mul` to its field.

`line_bits` is the width of a codec's lowest field when that field is one
biased integer coordinate, else None. Right-multiplying by any element adds
its coordinate in that field to every code's field and moves the fields
above it alike for codes that agree there. So `measures._window_plan` can
move such codes as contiguous runs, and treat the elements that are the
identity outside the field as one dense 1-D kernel.
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

    def mul(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """xs * ys row by row, broadcast; `ok` marks the products that encode.

        x's i-th last letter sits at bit i*b and y's i-th first letter at bit
        (n_y-1-i)*b. k, the number of letters that cancel, is counted one
        place at a time while some row still cancels; each place's letters
        are taken on the operands before they broadcast, with a sentinel
        where a word has no letter there. When every x or every y is the
        empty word (code 0), as in each translate by (e|(1)) and each
        Folner count of f2xz's `center`, the product is the other operand,
        copied, since callers shift it in place.
        """
        b, sl, lm = _u(self.letter_bits), _u(self.shift_len), self._letter_mask
        for one, other in ((xs, ys), (ys, xs)):
            if not one.any():
                out = np.empty(np.broadcast_shapes(xs.shape, ys.shape), dtype=U64)
                out[...] = other
                return out, out >> sl <= _u(self.max_len)
        nx, vx = xs >> sl, xs & self._val_mask
        ny, vy = ys >> sl, ys & self._val_mask
        k = np.zeros(np.broadcast_shapes(xs.shape, ys.shape), dtype=U64)
        live = np.ones(k.shape, dtype=bool)
        none_x, none_y = ~_u(0), ~_u(1)  # never a letter, nor equal to each other
        for i in range(int(min(nx.max(initial=0), ny.max(initial=0)))):
            at = _u(i)
            # a shift past 63 bits gives 0 in numpy; the sentinel covers those rows
            xl = np.where(nx > at, (vx >> at * b) & lm, none_x)
            yl = np.where(ny > at, ((vy >> (ny - at - _u(1)) * b) & lm) ^ _u(1), none_y)
            live &= xl == yl
            if not live.any():
                break
            k += live
        # in place from here: a broadcast can be large, and each fresh
        # temporary of it costs page faults
        n = nx + ny
        n -= k
        n -= k
        ok = n <= _u(self.max_len)
        k *= b
        joined = vx >> k
        np.subtract(ny * b, k, out=k)  # bits of y left after the cancellation
        joined <<= k
        joined &= self._val_mask
        np.left_shift(_u(1), k, out=k)
        k -= _u(1)
        k &= vy
        joined |= k
        n <<= sl
        n |= joined
        return n, ok


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

    def mul(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """xs * ys row by row, broadcast: each coordinate's fields added, one bias
        taken off; `ok` marks the sums that stay in their fields."""
        shape = np.broadcast_shapes(xs.shape, ys.shape)
        ok = np.ones(shape, dtype=bool)
        out = np.zeros(shape, dtype=U64)
        for sh in self._shifts:
            # fields are below 2^62, so the sum fits int64
            s = ((xs >> _u(sh)) & self._mask).astype(np.int64) + ((ys >> _u(sh)) & self._mask).astype(np.int64)
            s -= self._bias
            ok &= s >= 0
            ok &= s < self._limit
            s = s.view(U64)
            s <<= _u(sh)
            out |= s
        return out, ok


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

    def mul(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = (xs + ys) % _u(self.n)  # residues are below 2^61, so the sum fits
        return out, np.ones(out.shape, dtype=bool)


class LamplighterCodec:
    """Lamplighter elements (lamps, pos) with lamps in a fixed window.

    Layout (63 bits): [lamp window : 47][pos + 2^15 : 16]. Lamp p is bit
    p + 23 of the window, so the window holds lamps in [-23, 23].
    """

    line_bits = None
    pos_bits = 16
    lamp_lo, lamp_hi = -23, 23

    def __init__(self, group):
        self._bias = 1 << (self.pos_bits - 1)
        self._nlamps = self.lamp_hi - self.lamp_lo + 1
        self._pos_mask = _u((1 << self.pos_bits) - 1)
        self._window = _u((1 << self._nlamps) - 1)

    def encode_one(self, x) -> int | None:
        lamps, pos = x
        f = pos + self._bias
        if not 0 <= f < (1 << self.pos_bits):
            return None
        if lamps and (lamps[0] < self.lamp_lo or lamps[-1] > self.lamp_hi):
            return None
        mask = sum(1 << (p - self.lamp_lo) for p in lamps)
        return (mask << self.pos_bits) | f

    def decode_one(self, code: int):
        mask = code >> self.pos_bits
        lamps = []
        while mask:  # lowest lit bit first, so the lamps come out ascending
            low = mask & -mask
            lamps.append(low.bit_length() - 1 + self.lamp_lo)
            mask ^= low
        return tuple(lamps), (code & int(self._pos_mask)) - self._bias

    def _split(self, codes: np.ndarray):
        """Each code's lamp window and its marker (biased, as int64)."""
        return codes >> _u(self.pos_bits), (codes & self._pos_mask).astype(np.int64)

    def mul(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """xs * ys row by row, broadcast: y's window moved by x's marker and XORed
        into x's, the markers added.

        x's lamps never leave the window, so the product encodes exactly when
        no lamp of y leaves it on the move and the marker stays in its field.
        """
        n = self._nlamps
        lx, px = self._split(xs)
        ly, py = self._split(ys)
        shift = px - self._bias  # x's marker
        s = np.minimum(np.abs(shift), n).astype(U64)
        up = shift > 0
        lost = np.where(up, ly >> (_u(n) - s), ly & ((_u(1) << s) - _u(1)))
        moved = np.where(up, (ly << s) & self._window, ly >> s)
        pos = px + py - self._bias
        ok = (lost == _u(0)) & (pos >= 0) & (pos < (1 << self.pos_bits))
        return ((lx ^ moved) << _u(self.pos_bits)) | (pos.astype(U64) & self._pos_mask), ok


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

    def mul(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        shape = np.broadcast_shapes(xs.shape, ys.shape)
        ok = np.ones(shape, dtype=bool)
        out = np.zeros(shape, dtype=U64)
        for sub, sh, m in zip(self._subs, self._shifts, self._masks):
            field, o = sub.mul((xs >> _u(sh)) & m, (ys >> _u(sh)) & m)
            ok &= o
            field <<= _u(sh)
            out |= field
        return out, ok


def codec_for(
    group,
) -> FreeCodec | AbelianCodec | CyclicGroupCodec | LamplighterCodec | ProductCodec | None:
    """Best packed codec for the group, or None when only dicts will do."""
    from groupwalk import groups

    try:
        if isinstance(group, groups.FreeGroup):
            return FreeCodec(group)
        if isinstance(group, groups.FreeAbelian):
            return AbelianCodec(group)
        if isinstance(group, groups.CyclicGroup):
            return CyclicGroupCodec(group)
        if isinstance(group, groups.Lamplighter):
            return LamplighterCodec(group)
        if isinstance(group, groups.DirectProduct):
            return ProductCodec(group)
    except SpecMismatchError:
        return None
    return None
