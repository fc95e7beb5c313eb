"""Reference translate-shattering check in `ConstructibleSet` algebra.

The translators g with p in g + X form the set p - X.  For each pattern of
the points, the translators inside the window that cut out exactly that
pattern are the intersection of the selected p - X minus the union of the
rest, built here by boolean operations on exact `Fraction` sets, with no
integer lattice and no merged walk.  The tests compare `vclab.vc`, which
reads its translators off one integer signature sweep, against this.
"""

from vclab.constructible import ConstructibleSet


def minkowski_diff(a, b):
    """{x - y : x in a, y in b}, exact."""
    pieces = []
    for alo, ahi, alc, ahc in a.components():
        for blo, bhi, blc, bhc in b.components():
            pieces.append((alo - bhi, ahi - blo, alc and bhc, ahc and blc))
    return ConstructibleSet.from_pieces(pieces)


def points_shattered_by_translates(x, points, window):
    """{pattern: translator} for all 2^k patterns of the points, or None when
    some pattern has no translator in the window.  Each translator is the
    midpoint of the first interval of its region, or its first point when
    the region has no interval."""
    diffs = [minkowski_diff(ConstructibleSet.from_points([p]), x) for p in points]
    witnesses = {}
    for pattern in range(2 ** len(points)):
        region = ConstructibleSet.interval(*window)
        for j, diff in enumerate(diffs):
            region = region.intersection(diff) if pattern >> j & 1 else region.difference(diff)
        if region.is_empty:
            return None
        if region.intervals:
            first = region.intervals[0]
            witnesses[pattern] = (first.lo + first.hi) / 2
        else:
            witnesses[pattern] = region.points[0]
    return witnesses
