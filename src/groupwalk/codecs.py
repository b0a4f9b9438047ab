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
unsigned; a multiplier coordinate whose size reaches 2^width flags every
row, so one past int64 never reaches numpy.

Lamplighter codes hold the biased marker in the low 16 bits and a 47-bit
lamp window above it, lamp p at window bit p + 23, so lamps in [-23, 23]
fit. `mul_right` XORs y's lamps in at each row's marker and adds y's
marker; `mul_left` shifts each row's lamps by t's marker, XORs t's lamps in
and adds t's marker. Either flags exactly the products that leave the
window or the marker's field.

`mul(xs, ys)` multiplies two code arrays row by row, broadcasting their
shapes as a numpy ufunc does: `mul(xs[None, :], ys[:, None])` is the table
of every x * y, y-major. Its `ok` is false exactly where the product does
not encode, as for `mul_right`, and the code there is meaningless. Free
codes cancel x's last letters against y's first ones while they are
inverse letters, then join what is left; abelian and cyclic codes add
their fields; lamplighter codes XOR y's window, moved by x's marker, into
x's and add the markers; a product codec applies each factor's `mul`.

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

    def mul(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """xs * ys row by row, broadcast; `ok` as in `mul_right`.

        x's i-th last letter sits at bit i*b and y's i-th first letter at bit
        (n_y-1-i)*b. k, the number of letters that cancel, is counted one
        place at a time while some row still cancels; each place's letters
        are taken on the operands before they broadcast, with a sentinel
        where a word has no letter there.
        """
        b, sl, lm = _u(self.letter_bits), _u(self.shift_len), self._letter_mask
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

    def mul_right(self, codes: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
        if any(abs(v) >= self._limit for v in y):  # no coordinate stays, and v may not fit int64
            return codes, np.zeros(len(codes), dtype=bool)
        ok = np.ones(len(codes), dtype=bool)
        out = np.zeros_like(codes)
        for sh, v in zip(self._shifts, y):
            s = ((codes >> _u(sh)) & self._mask).astype(np.int64) + v
            ok &= (s >= 0) & (s < self._limit)
            out |= s.astype(U64) << _u(sh)
        return out, ok

    mul_left = mul_right  # the group is commutative

    def mul(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """xs * ys row by row, broadcast: each coordinate's fields added, one bias
        taken off; `ok` as in `mul_right`."""
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

    def mul_right(self, codes: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray]:
        out = (codes + _u(v % self.n)) % _u(self.n)
        return out, np.ones(len(codes), dtype=bool)

    mul_left = mul_right  # the group is commutative

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

    def _join(self, lamps: np.ndarray, pos: np.ndarray, p: int, ok: np.ndarray):
        """Codes from lamp windows and biased markers moved by p; `ok` also
        checks that the marker stays in its field."""
        if abs(p) >= 1 << self.pos_bits:  # no marker stays, and p may not fit int64
            return lamps, np.zeros(len(lamps), dtype=bool)
        pos = pos + p
        ok &= (pos >= 0) & (pos < (1 << self.pos_bits))
        return (lamps << _u(self.pos_bits)) | (pos.astype(U64) & self._pos_mask), ok

    def mul_right(self, codes: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
        """codes * y: y's lamps XORed in at each row's marker, then y's marker added.

        A row's lamps never leave the window, so the product encodes exactly
        when y's lamps, moved by the row's marker, land inside it.
        """
        f_y, p_y = y
        lamps, pos = self._split(codes)
        ok = np.ones(len(codes), dtype=bool)
        if f_y:
            lo, span = f_y[0], f_y[-1] - f_y[0]
            # no marker in the 16-bit field can move y's lamps into the window
            if span >= self._nlamps or not self.lamp_lo - self._bias < lo <= self.lamp_hi + self._bias:
                return codes, np.zeros(len(codes), dtype=bool)
            mask = _u(sum(1 << (p - lo) for p in f_y))
            at = pos - self._bias + (lo - self.lamp_lo)  # bit of y's lowest lamp
            ok = (at >= 0) & (at + span < self._nlamps)
            lamps = lamps ^ (mask << np.clip(at, 0, self._nlamps - 1).astype(U64))
        return self._join(lamps, pos, p_y, ok)

    def mul_left(self, codes: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
        """t * codes: each row's lamps moved by t's marker, then t's lamps XORed in.

        Lamps moved out of the window must be cancelled by t's lamps outside
        it, so the product encodes exactly when the bits that leave the
        window equal t's lamps beyond it.
        """
        f_t, p_t = t
        lamps, pos = self._split(codes)
        n, lo, hi = self._nlamps, self.lamp_lo, self.lamp_hi
        inside = sum(1 << (p - lo) for p in f_t if lo <= p <= hi)
        outside = [p for p in f_t if not lo <= p <= hi]
        s = min(abs(p_t), n)  # how many bits of the window leave it
        # the lamps that leave span [first, first + s); t's outer lamps must too
        first = hi + 1 + p_t - s if p_t > 0 else lo + p_t
        if any(not first <= p < first + s for p in outside):
            return codes, np.zeros(len(codes), dtype=bool)
        want = _u(sum(1 << (p - first) for p in outside))
        if p_t > 0:
            leaving, kept = lamps >> _u(n - s), (lamps << _u(s)) & self._window
        else:
            leaving, kept = lamps & _u((1 << s) - 1), lamps >> _u(s)
        return self._join(kept ^ _u(inside), pos, p_t, leaving == want)

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
