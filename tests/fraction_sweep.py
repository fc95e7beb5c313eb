"""Reference boolean sweep over (Fraction, bool) keys.

`sweep` orders the line by the keys (x, False), standing for x itself, and
(x, True), standing for the points just after x, compares them as Fractions
and builds each output component from the flip keys.  `measure` sums the
Fraction lengths.  `vclab.constructible` runs the same sweep on integer keys
on one lattice; the tests require both to give the same canonical sets,
piece by piece.
"""

from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from vclab.constructible import ConstructibleSet, Interval


def sweep(operands, fn):
    """The canonical set of points x with fn(x in operand 0, x in operand 1)."""
    events = []
    for side, pieces in enumerate(operands):
        for lo, hi, lc, hc in pieces:
            start, end = (lo, not lc), (hi, bool(hc))
            if start < end:
                events += ((start, side, 1), (end, side, -1))
    events.sort()
    counts = [0, 0]
    inside = False
    flips = []
    for key, group in groupby(events, key=itemgetter(0)):
        for _, side, delta in group:
            counts[side] += delta
        if fn(counts[0] > 0, counts[1] > 0) != inside:
            inside = not inside
            flips.append(key)
    return ConstructibleSet(tuple([
        Interval(lo, hi, not lo_open, hi_closed)
        for (lo, lo_open), (hi, hi_closed) in zip(flips[::2], flips[1::2])
    ]))


def from_pieces(pieces):
    checked = []
    for lo, hi, lc, hc in pieces:
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"piece with lo > hi: {lo} > {hi}")
        checked.append(Interval(lo, hi, lc, hc))
    return sweep((checked,), lambda a, b: a)


def union(a, b):
    return sweep((a.pieces, b.pieces), lambda x, y: x or y)


def intersection(a, b):
    return sweep((a.pieces, b.pieces), lambda x, y: x and y)


def difference(a, b):
    return sweep((a.pieces, b.pieces), lambda x, y: x and not y)


def measure(a):
    return sum((hi - lo for lo, hi, _, _ in a.pieces), Fraction(0))
