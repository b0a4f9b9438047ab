"""Canonical-form arithmetic for a registry of computable group families.

Families: free groups (reduced letter tuples), free abelian groups
(exponent vectors), finite cyclic groups (residues), direct products
(component tuples) and the order-2 lamplighter over Z (lit-lamp tuple plus
marker position). Elements are plain hashable Python values; all operations
live on the group object, so measures and sets can use elements directly as
dict keys. Canonical form is unique per element: equality of values is
equality in the group.

Every family declares a total "spiral" order: word length first, then a
family-specific lexicographic rank. Enumeration, set truncation and all
deterministic tie-breaks use this single order.
"""

from __future__ import annotations

import operator
import string
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from groupwalk.errors import BudgetError, SpecMismatchError

_PAIR_GUARD = 5 * 10**7


def _coord_rank(m: int) -> int:
    # spiral order on Z: 0, 1, -1, 2, -2, ...
    return 2 * abs(m) - (1 if m > 0 else 0)


class Group:
    """Base class: one instance describes one concrete group."""

    def spec_text(self) -> str:
        raise NotImplementedError

    @property
    def identity(self):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def validate(self, x) -> None:
        """Raise SpecMismatchError unless x is a canonical element."""
        raise NotImplementedError

    def word_length(self, x) -> int:
        raise NotImplementedError

    def sort_key(self, x) -> tuple:
        raise NotImplementedError

    def generators(self) -> list:
        """Symmetric generating list in declared order."""
        raise NotImplementedError

    def is_central(self, x) -> bool:
        raise NotImplementedError

    def is_amenable(self) -> bool:
        raise NotImplementedError

    def element_to_text(self, x) -> str:
        raise NotImplementedError

    def element_from_text(self, s: str):
        raise NotImplementedError

    def codec(self):
        """Packed int64 codec for the vectorized kernel, or None; built once per group."""
        if not hasattr(self, "_codec_cache"):
            from groupwalk import codecs

            self._codec_cache = codecs.codec_for(self)
        return self._codec_cache

    def conjugate(self, a, b):
        """b^-1 a b."""
        return self.mul(self.mul(self.inv(b), a), b)

    def shell(self, r: int) -> tuple:
        """Elements of word length exactly r, in spiral order (empty past a
        finite group's last shell).

        The generators are symmetric, so shell n+1 is the neighbours of shell
        n minus shells n and n-1; each shell is built once and cached.
        """
        if r < 0:
            raise SpecMismatchError("radius must be >= 0")
        if not hasattr(self, "_shell_cache"):
            self._shell_cache = [(), (self.identity,)]  # shells -1 and 0
        shells = self._shell_cache
        while len(shells) <= r + 1 and shells[-1]:
            near = set(shells[-2]).union(shells[-1])
            nxt = {self.mul(x, g) for g in self.generators() for x in shells[-1]} - near
            shells.append(tuple(sorted(nxt, key=self.sort_key)))
        return shells[r + 1] if r + 1 < len(shells) else ()

    def __eq__(self, other):
        return isinstance(other, Group) and self.spec_text() == other.spec_text()

    def __hash__(self):
        return hash(self.spec_text())

    def __repr__(self):
        return self.spec_text()


class FreeGroup(Group):
    """Free group of rank k; elements are reduced tuples of nonzero letters.

    Letter +g is the g-th generator, -g its inverse. Generator g is
    labelled by the g-th lowercase letter (inverse rendered uppercase in
    text form).
    """

    def __init__(self, rank: int):
        if rank < 1:
            raise SpecMismatchError("free group rank must be >= 1")
        if rank > 26:
            raise SpecMismatchError("free group rank capped at 26 (single-char labels)")
        self.rank = rank
        self.labels = tuple(string.ascii_lowercase[:rank])

    def spec_text(self):
        return f"free({self.rank})"

    @property
    def identity(self):
        return ()

    def mul(self, x, y):
        i, j = len(x), 0
        while i > 0 and j < len(y) and x[i - 1] == -y[j]:
            i -= 1
            j += 1
        return x[:i] + y[j:]

    def inv(self, x):
        return tuple(-l for l in reversed(x))

    def validate(self, x):
        if not isinstance(x, tuple):
            raise SpecMismatchError(f"free element must be a tuple, got {type(x)}")
        for a, b in zip(x, x[1:]):
            if a == -b:
                raise SpecMismatchError(f"word not reduced: {x}")
        for l in x:
            if not isinstance(l, int) or l == 0 or abs(l) > self.rank:
                raise SpecMismatchError(f"letter {l!r} out of range for rank {self.rank}")

    def word_length(self, x):
        return len(x)

    @staticmethod
    def _letter_rank(l: int) -> int:
        return (abs(l) - 1) * 2 + (0 if l > 0 else 1)

    def sort_key(self, x):
        return (len(x), tuple(self._letter_rank(l) for l in x))

    def generators(self):
        gens = []
        for g in range(1, self.rank + 1):
            gens.append((g,))
            gens.append((-g,))
        return gens

    def is_central(self, x):
        return self.rank == 1 or x == ()

    def is_amenable(self):
        return self.rank == 1

    def element_to_text(self, x):
        if not x:
            return "e"
        return "".join(
            self.labels[abs(l) - 1] if l > 0 else self.labels[abs(l) - 1].upper()
            for l in x
        )

    def element_from_text(self, s):
        if s == "e":
            return ()
        word = []
        for ch in s:
            low = ch.lower()
            if low not in self.labels:
                raise SpecMismatchError(f"unknown letter {ch!r} for {self.spec_text()}")
            g = self.labels.index(low) + 1
            word.append(g if ch.islower() else -g)
        # canonicalize: parse accepts unreduced words
        out = ()
        for l in word:
            out = self.mul(out, (l,))
        return out


class FreeAbelian(Group):
    """Z^d; elements are d-tuples of ints."""

    def __init__(self, rank: int):
        if rank < 1:
            raise SpecMismatchError("free-abelian rank must be >= 1")
        self.rank = rank

    def spec_text(self):
        return f"free-abelian({self.rank})"

    @property
    def identity(self):
        return (0,) * self.rank

    def mul(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def inv(self, x):
        return tuple(-a for a in x)

    def validate(self, x):
        if (
            not isinstance(x, tuple)
            or len(x) != self.rank
            or not all(isinstance(a, int) for a in x)
        ):
            raise SpecMismatchError(f"expected {self.rank}-tuple of ints, got {x!r}")

    def word_length(self, x):
        return sum(abs(a) for a in x)

    def sort_key(self, x):
        return (self.word_length(x), tuple(_coord_rank(a) for a in x))

    def generators(self):
        gens = []
        for i in range(self.rank):
            e = [0] * self.rank
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return gens

    def is_central(self, x):
        return True

    def is_amenable(self):
        return True

    def element_to_text(self, x):
        return "(" + ",".join(str(a) for a in x) + ")"

    def element_from_text(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise SpecMismatchError(f"expected (..) vector, got {s!r}")
        parts = s[1:-1].split(",")
        if len(parts) != self.rank:
            raise SpecMismatchError(f"expected {self.rank} coordinates in {s!r}")
        try:
            return tuple(int(p) for p in parts)
        except ValueError as exc:
            raise SpecMismatchError(f"bad integer in {s!r}") from exc


class CyclicGroup(Group):
    """Z/n; elements are residues 0..n-1."""

    def __init__(self, n: int):
        if n < 2:
            raise SpecMismatchError("cyclic order must be >= 2")
        self.n = n

    def spec_text(self):
        return f"cyclic({self.n})"

    @property
    def identity(self):
        return 0

    def mul(self, x, y):
        return (x + y) % self.n

    def inv(self, x):
        return (-x) % self.n

    def validate(self, x):
        if not isinstance(x, int) or not (0 <= x < self.n):
            raise SpecMismatchError(f"expected residue in [0,{self.n}), got {x!r}")

    def word_length(self, x):
        return min(x, self.n - x)

    def sort_key(self, x):
        return (self.word_length(x), 0 if x <= self.n - x else 1)

    def generators(self):
        return [1] if self.n == 2 else [1, self.n - 1]

    def is_central(self, x):
        return True

    def is_amenable(self):
        return True

    def element_to_text(self, x):
        return str(x)

    def element_from_text(self, s):
        try:
            v = int(s)
        except ValueError as exc:
            raise SpecMismatchError(f"bad residue {s!r}") from exc
        if not (0 <= v < self.n):
            raise SpecMismatchError(f"residue {v} out of range [0,{self.n})")
        return v


class DirectProduct(Group):
    """Direct product of two or more factors; elements are component tuples."""

    def __init__(self, factors: tuple[Group, ...]):
        if len(factors) < 2:
            raise SpecMismatchError("direct product needs >= 2 factors")
        self.factors = tuple(factors)

    def spec_text(self):
        return "product(" + ",".join(f.spec_text() for f in self.factors) + ")"

    @property
    def identity(self):
        return tuple(f.identity for f in self.factors)

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def inv(self, x):
        return tuple(f.inv(a) for f, a in zip(self.factors, x))

    def validate(self, x):
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise SpecMismatchError(f"expected {len(self.factors)}-component tuple")
        for f, a in zip(self.factors, x):
            f.validate(a)

    def word_length(self, x):
        return sum(f.word_length(a) for f, a in zip(self.factors, x))

    def sort_key(self, x):
        return (
            self.word_length(x),
            tuple(f.sort_key(a) for f, a in zip(self.factors, x)),
        )

    def generators(self):
        gens = []
        for i, f in enumerate(self.factors):
            for g in f.generators():
                e = list(self.identity)
                e[i] = g
                gens.append(tuple(e))
        return gens

    def is_central(self, x):
        return all(f.is_central(a) for f, a in zip(self.factors, x))

    def is_amenable(self):
        return all(f.is_amenable() for f in self.factors)

    def element_to_text(self, x):
        return "(" + "|".join(f.element_to_text(a) for f, a in zip(self.factors, x)) + ")"

    def element_from_text(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise SpecMismatchError(f"expected (..|..) tuple, got {s!r}")
        parts = _split_top(s[1:-1], "|")
        if len(parts) != len(self.factors):
            raise SpecMismatchError(
                f"expected {len(self.factors)} components in {s!r}, got {len(parts)}"
            )
        return tuple(f.element_from_text(p) for f, p in zip(self.factors, parts))


class Lamplighter(Group):
    """Wreath product of Z/2 lamps over Z.

    Element = (lamps, pos): lamps is the strictly increasing tuple of lit
    positions, pos the marker. Only order-2 lamps are implemented.
    """

    def __init__(self, lamp_order: int = 2):
        if lamp_order != 2:
            raise SpecMismatchError("only order-2 lamps are supported")
        self.lamp_order = lamp_order

    def spec_text(self):
        return f"lamplighter({self.lamp_order})"

    @property
    def identity(self):
        return ((), 0)

    def mul(self, x, y):
        (fx, px), (fy, py) = x, y
        lamps = set(fx).symmetric_difference(p + px for p in fy)
        return (tuple(sorted(lamps)), px + py)

    def inv(self, x):
        fx, px = x
        return (tuple(sorted(p - px for p in fx)), -px)

    def validate(self, x):
        if not (isinstance(x, tuple) and len(x) == 2):
            raise SpecMismatchError(f"expected (lamps, pos) pair, got {x!r}")
        lamps, pos = x
        if not isinstance(pos, int) or not isinstance(lamps, tuple):
            raise SpecMismatchError(f"expected (tuple, int), got {x!r}")
        # every lamp an int, then each one below the next
        if not (all(isinstance(p, int) for p in lamps) and all(map(operator.lt, lamps, lamps[1:]))):
            raise SpecMismatchError(f"lamps must be a strictly increasing int tuple: {lamps!r}")

    def word_length(self, x):
        # marker walk from 0 to pos covering every lit lamp, plus one toggle each
        lamps, m = x
        if lamps:
            lo = min(lamps[0], 0, m)
            hi = max(lamps[-1], 0, m)
            travel = min((0 - lo) + (hi - lo) + (hi - m), (hi - 0) + (hi - lo) + (m - lo))
        else:
            travel = abs(m)
        return travel + len(lamps)

    def sort_key(self, x):
        lamps, m = x
        return (self.word_length(x), _coord_rank(m), lamps)

    def generators(self):
        return [((), 1), ((), -1), ((0,), 0)]

    def is_central(self, x):
        return x == self.identity

    def is_amenable(self):
        return True

    def element_to_text(self, x):
        lamps, m = x
        return "({" + ",".join(str(p) for p in lamps) + "}|" + str(m) + ")"

    def element_from_text(self, s):
        s = s.strip()
        if not (s.startswith("({") and s.endswith(")")):
            raise SpecMismatchError(f"expected ({{..}}|pos), got {s!r}")
        body = s[1:-1]
        close = body.index("}")
        lamp_part = body[1:close]
        rest = body[close + 1 :]
        if not rest.startswith("|"):
            raise SpecMismatchError(f"missing position in {s!r}")
        try:
            lamps = tuple(int(p) for p in lamp_part.split(",")) if lamp_part else ()
            pos = int(rest[1:])
        except ValueError as exc:
            raise SpecMismatchError(f"bad lamplighter element {s!r}") from exc
        val = (tuple(sorted(set(lamps))), pos)
        self.validate(val)
        return val


def _split_top(s: str, sep: str) -> list[str]:
    """Split on sep at paren/brace depth zero."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_group(text: str) -> Group:
    """Parse the declarative group form, e.g. product(free(2),free-abelian(1))."""
    s = text.strip()
    if not s.endswith(")") or "(" not in s:
        raise SpecMismatchError(f"bad group spec {text!r}")
    head, _, inner = s.partition("(")
    inner = inner[:-1]
    head = head.strip()
    if head == "free":
        return FreeGroup(_parse_int(inner, text))
    if head == "free-abelian":
        return FreeAbelian(_parse_int(inner, text))
    if head == "cyclic":
        return CyclicGroup(_parse_int(inner, text))
    if head == "lamplighter":
        return Lamplighter(_parse_int(inner, text))
    if head == "product":
        parts = _split_top(inner, ",")
        # nested specs contain commas inside parens; _split_top handles that
        return DirectProduct(tuple(parse_group(p) for p in parts))
    raise SpecMismatchError(f"unknown group family {head!r}")


def _parse_int(s: str, ctx: str) -> int:
    try:
        return int(s.strip())
    except ValueError as exc:
        raise SpecMismatchError(f"bad integer parameter in {ctx!r}") from exc


# -- finite sets -------------------------------------------------------


@dataclass(frozen=True)
class GSet:
    """Finite deduplicated set of elements of one group.

    `truncated` marks any set produced under a cap that had to drop
    elements; the flag travels with downstream products so fidelity claims
    stay auditable.
    """

    group: Group
    elements: frozenset
    truncated: bool = False

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def __iter__(self) -> Iterator:
        return iter(self.sorted_elements())

    def sorted_elements(self) -> list:
        return sorted(self.elements, key=self.group.sort_key)

    @cached_property
    def codes(self) -> np.ndarray | None:
        """The elements' packed codes in `elements` order (read-only), or None
        when the group has no codec or some element does not encode.

        Computed on first use and kept, so every reader of one set (a Folner
        search's count, a later re-check, `build_measure`) shares one encoding.
        """
        codec = self.group.codec()
        codes = None if codec is None else [codec.encode_one(x) for x in self.elements]
        if codes is None or None in codes:
            return None
        out = np.array(codes, dtype=np.uint64)
        out.flags.writeable = False
        return out

    def is_symmetric(self) -> bool:
        inv = self.group.inv
        return all(inv(x) in self.elements for x in self.elements)

    def symmetrized(self) -> "GSet":
        inv = self.group.inv
        return GSet(
            self.group,
            self.elements | frozenset(inv(x) for x in self.elements),
            self.truncated,
        )

    def to_texts(self) -> list[str]:
        return [self.group.element_to_text(x) for x in self.sorted_elements()]

    @staticmethod
    def from_texts(group: Group, texts) -> "GSet":
        return GSet(group, frozenset(group.element_from_text(t) for t in texts))


def enumerate_element(group: Group, i: int):
    """The i-th element (1-based) in the declared spiral enumeration.

    enumerate_element(1) is the identity for every family.
    """
    if i < 1:
        raise SpecMismatchError("enumeration index must be >= 1")
    k, r = i, 0
    while k > len(shell := group.shell(r)):
        if not shell:
            raise SpecMismatchError(
                f"enumeration exhausted: {group.spec_text()} has {i - k} elements"
            )
        k -= len(shell)
        r += 1
    return shell[k - 1]


def _truncate_to_radius(group: Group, elements: set, cap: int) -> frozenset:
    """Largest full word-length radius that fits the cap (canonical fallback)."""
    ordered = sorted(elements, key=group.sort_key)
    if len(ordered) <= cap:
        return frozenset(ordered)
    # sort_key starts with word length, so radius prefixes are contiguous
    cut = cap
    cut_len = group.word_length(ordered[cap])
    while cut > 0 and group.word_length(ordered[cut - 1]) == cut_len:
        cut -= 1
    if cut == 0:
        # even one full length layer exceeds the cap; keep canonical prefix
        cut = cap
    return frozenset(ordered[:cut])


def product_power(A: GSet, k: int, cap: int) -> GSet:
    """k-fold product set {a_1 ... a_k : a_j in A}.

    Under a cap the result is shrunk to the largest word-length radius that
    fits, with the truncated flag set. Truncation is applied to oversized
    intermediates as well, so the result is always a subset of the true
    product set.
    """
    if len(A) == 0:
        raise SpecMismatchError("product_power of empty set")
    if k < 1:
        raise SpecMismatchError("product_power exponent must be >= 1")
    if cap < len(A):
        raise BudgetError(f"product_power cap {cap} < |A| = {len(A)}")
    g = A.group
    base = A.sorted_elements()
    cur = set(base)
    truncated = A.truncated
    for _ in range(k - 1):
        if len(cur) * len(base) > _PAIR_GUARD:
            cur = set(_truncate_to_radius(g, cur, _PAIR_GUARD // len(base)))
            truncated = True
        cur = {g.mul(x, a) for x in cur for a in base}
        if len(cur) > cap:
            cur = set(_truncate_to_radius(g, cur, cap))
            truncated = True
    return GSet(g, frozenset(cur), truncated)


def _conjugators(B: GSet):
    """B split for `conjugate_set`: the elements b whose b and b^-1 both encode,
    with those codes as arrays, and the rest of B, whose conjugates take the
    group law. Without a codec every element is in the rest."""
    g = B.group
    codec = g.codec()
    coded, rest, codes, inv_codes = [], [], [], []
    for b in B.elements:
        c = None if codec is None else codec.encode_one(b)
        ci = None if c is None else codec.encode_one(g.inv(b))
        if ci is None:
            rest.append(b)
        else:
            coded.append(b)
            codes.append(c)
            inv_codes.append(ci)
    return coded, np.array(codes, dtype=np.uint64), np.array(inv_codes, dtype=np.uint64), rest


def conjugate_set(A: GSet, B: GSet, cap: int, conjugators=None) -> GSet:
    """{b^-1 a b : a in A, b in B}, deduplicated.

    On a codec group each encoded a is conjugated by every encoded b at once:
    `mul(b^-1 codes, a)`, then `mul(., b codes)`, |B| rows a call, and the
    distinct codes are decoded once. A row whose product does not encode, an
    a or b that does not encode, and every pair of a codec-less group take
    `g.conjugate`. `conjugators` is `_conjugators(B)`, for a caller that
    conjugates by one B many times.
    """
    if A.group != B.group:
        raise SpecMismatchError("conjugate_set arguments from different groups")
    if cap < 1:
        raise BudgetError("conjugate_set cap must be >= 1")
    if len(A) * len(B) > _PAIR_GUARD:
        raise BudgetError(
            f"conjugate_set would form {len(A) * len(B)} pairs (> {_PAIR_GUARD})"
        )
    g = A.group
    codec = g.codec()
    coded, b_codes, inv_codes, rest = _conjugators(B) if conjugators is None else conjugators
    out = set()
    found: set[int] = set()
    for a in A.elements:
        c = None if codec is None or not coded else codec.encode_one(a)
        if c is None:
            out.update(g.conjugate(a, b) for b in coded)
        else:
            left, ok = codec.mul(inv_codes, np.array([c], dtype=np.uint64))
            conj, ok2 = codec.mul(left, b_codes)
            ok &= ok2
            found.update(conj[ok].tolist())
            out.update(g.conjugate(a, coded[j]) for j in np.flatnonzero(~ok).tolist())
        out.update(g.conjugate(a, b) for b in rest)
    if found:
        out.update(map(codec.decode_one, found))
    truncated = A.truncated or B.truncated
    if len(out) > cap:
        out = set(_truncate_to_radius(g, out, cap))
        truncated = True
    return GSet(g, frozenset(out), truncated)


def iterated_conjugate_set(R: GSet, A: GSet, k: int, cap: int) -> GSet:
    """{p^-1 r p : r in R, p in product_power(A, k)}, without forming A^k.

    Conjugating by a_1 ... a_k is conjugating by a_1, then by a_2, ..., then
    by a_k, so k rounds of `conjugate_set(., A, cap)` give the set exactly,
    and each round holds about as many elements as the result rather than
    |A|^k products. A and A^-1 are encoded once, for every round. A round
    over the cap (or over the pair guard) truncates to a word-length radius,
    so the result is always a subset of the true set, with the truncated
    flag set. A round that changes nothing is a fixed point, and the loop
    stops there.
    """
    if cap < len(A):
        raise BudgetError(f"conjugation cap {cap} < |A| = {len(A)}")
    g = R.group
    cur = R
    conjugators = _conjugators(A)
    for _ in range(k):
        if len(cur) * len(A) > _PAIR_GUARD:
            kept = _truncate_to_radius(g, set(cur.elements), _PAIR_GUARD // len(A))
            cur = GSet(g, kept, True)
        nxt = conjugate_set(cur, A, cap, conjugators)
        if nxt.elements == cur.elements:
            return nxt
        cur = nxt
    return cur
