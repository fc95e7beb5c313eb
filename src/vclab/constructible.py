"""Exact 1-D constructible sets: finite unions of rational intervals plus
isolated rational points, with boolean algebra, topology and measure.

Every endpoint is a Fraction; there is no floating point anywhere in this
module, so set equality, measure and border computations are exact.  Values
are immutable and canonical: two sets are equal iff their canonical forms
are structurally equal.  A set is one tuple of pieces, its maximal
components in increasing order.  A piece is an `Interval` (lo, hi,
lo_closed, hi_closed); the isolated point {p} is the closed degenerate piece
Interval(p, p), and any other degenerate piece is empty, so never kept.  Two
consecutive pieces a, b satisfy a.hi < b.lo, or a.hi = b.lo with both of
those ends open and both pieces nondegenerate.

Canonicalisation and the boolean operations share one coverage sweep over
integer keys on (1/L)ℤ, L the lcm of the ends' denominators (`on_lattice`):
the key 2·x·L stands for x itself and 2·x·L + 1 for the points just after
x, so keys order the line as x < just-after-x < any y > x.  A piece is a
half-open range of keys: [a,b) is 2aL..2bL, (a,b] is 2aL+1..2bL+1 and {p} is
2pL..2pL+1; a degenerate open or half-open piece starts at or after its end
and is empty.  The sweep counts coverage per operand at each key and records
the keys where the combined membership flips; each pair of flips is one
maximal component, whose ends are the input Fractions at those keys, so no
Fraction is built.  A flip pair 2pL, 2pL + 1 is the closed point {p}, so
points need no case of their own.  `measure` sums integer lengths on the
same lattice.  A thousand pairwise-coprime denominators make L about 11,000
bits and a union about 1.6 times slower than a sweep over Fraction keys.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .rational import format_rational, parse_rational


class Interval(NamedTuple):
    """A piece of the line from lo to hi with open/closed end flags.
    Interval(p, p) is the point {p}; any other degenerate piece is empty."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def contains(self, x: Fraction) -> bool:
        lo, hi, lo_closed, hi_closed = self
        return (lo < x or x == lo and lo_closed) and (x < hi or x == hi and hi_closed)


@dataclass(frozen=True, slots=True)
class ConstructibleSet:
    """Canonical finite union of intervals and isolated points, held as its
    pieces in increasing order (see the module docstring).

    Trust the caller only through from_pieces; direct construction is for
    already-canonical data (internal use and simple literals)."""

    pieces: tuple[Interval, ...] = ()

    # ---------------------------------------------------------------- build

    @classmethod
    def empty(cls) -> "ConstructibleSet":
        return cls()

    @classmethod
    def from_points(cls, xs: Iterable) -> "ConstructibleSet":
        return cls.from_pieces(Interval(x, x) for x in xs)

    @classmethod
    def interval(cls, lo, hi, lo_closed=True, hi_closed=True) -> "ConstructibleSet":
        return cls.from_pieces([Interval(lo, hi, lo_closed, hi_closed)])

    @classmethod
    def from_pieces(cls, pieces: Iterable[Interval]) -> "ConstructibleSet":
        """Canonicalize an arbitrary collection of interval/point pieces."""
        checked = [Interval(Fraction(lo), Fraction(hi), lc, hc) for lo, hi, lc, hc in pieces]
        return _sweep((checked,), lambda a, b: a)

    # ------------------------------------------------------------- queries

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The nondegenerate pieces, derived from `pieces` on each read; kept
        read-only for two readers that take a set apart, acceptance criterion
        03 and the boolean-op piece count of `perfbench/tracing.py`."""
        return tuple([piece for piece in self.pieces if piece.lo < piece.hi])

    @property
    def points(self) -> tuple[Fraction, ...]:
        """The isolated points, derived and kept as `intervals` is."""
        return tuple([piece.lo for piece in self.pieces if piece.lo == piece.hi])

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def __bool__(self) -> bool:
        return not self.is_empty

    def contains(self, x) -> bool:
        # Canonical pieces start strictly increasing, so only the last one
        # starting at or before x can hold it.
        x = Fraction(x)
        i = bisect_right(self.pieces, x, key=itemgetter(0))
        return i > 0 and self.pieces[i - 1].contains(x)

    __contains__ = contains

    def measure(self) -> Fraction:
        den, units = on_lattice([v for piece in self.pieces for v in piece[:2]])
        return Fraction(sum(units[1::2]) - sum(units[::2]), den)

    def hull(self) -> tuple[Fraction, Fraction] | None:
        """(min, max) of the closure, or None when empty."""
        return (self.pieces[0].lo, self.pieces[-1].hi) if self.pieces else None

    # --------------------------------------------------- boolean operations

    def union(self, other: "ConstructibleSet") -> "ConstructibleSet":
        return _sweep((self.pieces, other.pieces), lambda a, b: a or b)

    def intersection(self, other: "ConstructibleSet") -> "ConstructibleSet":
        return _sweep((self.pieces, other.pieces), lambda a, b: a and b)

    def difference(self, other: "ConstructibleSet") -> "ConstructibleSet":
        return _sweep((self.pieces, other.pieces), lambda a, b: a and not b)

    def is_subset(self, other: "ConstructibleSet") -> bool:
        return self.difference(other).is_empty

    # ------------------------------------------------------------ topology

    def closure(self) -> "ConstructibleSet":
        return ConstructibleSet.from_pieces(Interval(lo, hi) for lo, hi, _, _ in self.pieces)

    def interior(self) -> "ConstructibleSet":
        # Opened, a canonical set's intervals stay nondegenerate and apart, so
        # they are canonical as they are; isolated points have empty interior.
        return ConstructibleSet(
            tuple([Interval(lo, hi, False, False) for lo, hi, _, _ in self.pieces if lo < hi])
        )

    def border(self) -> "ConstructibleSet":
        return self.closure().difference(self.interior())

    def closure_of_interior(self) -> "ConstructibleSet":
        return self.interior().closure()

    # ------------------------------------------------------------- algebra

    def translate(self, g) -> "ConstructibleSet":
        g = Fraction(g)
        return ConstructibleSet(
            tuple([Interval(lo + g, hi + g, lc, hc) for lo, hi, lc, hc in self.pieces])
        )

    def r_neighborhood(self, r) -> "ConstructibleSet":
        """Union of closed balls of radius r around every component."""
        r = Fraction(r)
        if r <= 0:
            raise ValueError("radius must be positive")
        return ConstructibleSet.from_pieces(Interval(lo - r, hi + r) for lo, hi, _, _ in self.pieces)

    # --------------------------------------------------------------- dunder

    def __repr__(self):
        return f"ConstructibleSet({self.to_text()!r})"

    # -------------------------------------------------------- serialization

    def to_text(self) -> str:
        return " u ".join(_piece_text(*piece) for piece in self.pieces) or "{}"


def on_lattice(values: list[Fraction]) -> tuple[int, list[int]]:
    """L, the lcm of the values' denominators, and each value v, in order,
    as the integer v·L; the point (v, flag) is then the sweep key 2·v·L + flag."""
    ratios = [v.as_integer_ratio() for v in values]
    dens = {d for _, d in ratios}
    den = lcm(*dens)
    scale = {d: den // d for d in dens}
    return den, [n * scale[d] for n, d in ratios]


def _sweep(
    operands: tuple[Sequence[Interval], ...], fn: Callable[[bool, bool], bool]
) -> ConstructibleSet:
    """The canonical set of points x with fn(x in operand 0, x in operand 1)
    (a missing operand is empty); fn must map (False, False) to False.

    Each piece becomes a start and an end event on the integer sweep keys of
    the module docstring, carrying its input Fraction; one sort and one walk
    give the membership flips, whose ends are those Fractions.
    """
    _, units = on_lattice([v for pieces in operands for piece in pieces for v in piece[:2]])
    ends = iter(units)
    events = []
    for side, pieces in enumerate(operands):
        # zip takes each piece before its lo and hi from `ends`, so it stops at
        # the operand's end without taking an end of the next operand.
        for (lo, hi, lc, hc), a, b in zip(pieces, ends, ends):
            if a > b:
                raise ValueError(f"piece with lo > hi: {lo} > {hi}")
            start, end = 2 * a + (not lc), 2 * b + bool(hc)
            if start < end:
                events += ((start, side, 1, lo), (end, side, -1, hi))
    events.sort()
    counts = [0, 0]
    inside = False
    flips = []
    for key, group in groupby(events, key=itemgetter(0)):
        for _, side, delta, x in group:
            counts[side] += delta
        if fn(counts[0] > 0, counts[1] > 0) != inside:
            inside = not inside
            flips.append((key, x))
    return ConstructibleSet(tuple([
        Interval(lo, hi, start & 1 == 0, end & 1 == 1)
        for (start, lo), (end, hi) in zip(flips[::2], flips[1::2])
    ]))


_PART_RE = re.compile(r"^([\[\(])\s*([^,]+)\s*,\s*([^\]\)]+)\s*([\]\)])$")
_POINT_RE = re.compile(r"^\{\s*([^}]*)\s*\}$")


def _piece_text(lo: Fraction, hi: Fraction, lo_closed: bool, hi_closed: bool) -> str:
    """A piece as "[lo,hi)", "(lo,hi]" and so on, or "{p}" for a point."""
    if lo == hi:
        return "{%s}" % format_rational(lo)
    left = "[" if lo_closed else "("
    right = "]" if hi_closed else ")"
    return f"{left}{format_rational(lo)},{format_rational(hi)}{right}"


def parse_set(text: str) -> ConstructibleSet:
    """Inverse of ConstructibleSet.to_text, e.g. "[0,1/2) u (3/4,1] u {2}".
    "{}" and "" are the empty set; every piece must be nonempty, so an
    interval needs lo < hi, or lo = hi with both ends closed ("[p,p]" is
    the point {p})."""
    text = text.strip()
    if text in ("{}", ""):
        return ConstructibleSet()
    pieces: list[Interval] = []
    for raw in text.split(" u "):
        raw = raw.strip()
        m = _PART_RE.match(raw)
        if m:
            lo, hi = parse_rational(m.group(2)), parse_rational(m.group(3))
            lo_closed, hi_closed = m.group(1) == "[", m.group(4) == "]"
            if not (lo < hi or lo == hi and lo_closed and hi_closed):
                raise ValueError(
                    f"piece {raw!r} must have lo < hi, or lo = hi with both ends closed"
                )
            pieces.append(Interval(lo, hi, lo_closed, hi_closed))
            continue
        m = _POINT_RE.match(raw)
        if m:
            x = parse_rational(m.group(1))
            pieces.append(Interval(x, x))
            continue
        raise ValueError(f"cannot parse set component {raw!r}")
    return ConstructibleSet.from_pieces(pieces)


def locally_positive_measure(a: ConstructibleSet) -> bool:
    """True iff every point of the set has positive measure in each of its
    neighborhoods; for constructible sets this is exactly a ⊆ cl(int a)."""
    return a.is_subset(a.closure_of_interior())
