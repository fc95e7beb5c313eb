"""Reference VC and dual VC searches by row scans.

Each candidate tuple is tested by scanning the family rows (for points) or
the ground set (for rows), level by level over every increasing index tuple,
with no Venn-cell masks and no first index fixed at 0.  The tests compare
`vclab.vc`, which tests Venn cells of bitmasks and fixes the first index of
a translate family at 0, against this.  `vc_dimension_naive` goes further:
it tries every subset of every size, with no hereditary pruning.
"""

from itertools import combinations

from vclab.vc import ShatterReport


def shatter_report(system, idxs):
    """For each pattern of the points idxs, the first row cutting it out."""
    witnesses = {pattern: None for pattern in range(2 ** len(idxs))}
    for r, row in enumerate(system.rows):
        pattern = sum((row >> i & 1) << j for j, i in enumerate(idxs))
        if witnesses[pattern] is None:
            witnesses[pattern] = r
    return ShatterReport(tuple(system.ground[i] for i in idxs), witnesses)


def cells_nonempty(system, row_idxs):
    """Whether every Venn cell of the rows row_idxs holds a ground element."""
    signatures = {
        sum((system.rows[i] >> j & 1) << b for b, i in enumerate(row_idxs))
        for j in range(len(system.ground))
    }
    return len(signatures) == 2 ** len(row_idxs)


def levelwise(n, test):
    """(d, t): the largest size d of a tuple of range(n) passing test, and
    the first such tuple, trying each (k+1)-tuple that extends a passing
    k-tuple."""
    level, best = [()], ()
    while True:
        level = [t + (i,) for t in level for i in range(t[-1] + 1 if t else 0, n) if test(t + (i,))]
        if not level:
            return len(best), best
        best = level[0]


def vc_dimension(system):
    d, points = levelwise(len(system.ground), lambda t: shatter_report(system, t).shattered)
    return d, shatter_report(system, points)


def vc_dimension_naive(system):
    """Independent no-pruning oracle: the largest k such that some k-subset,
    tried among all subsets of every size, is shattered."""
    if not system.rows:
        raise ValueError("empty family has no VC dimension")
    n, d = len(system.ground), 0
    for k in range(1, n + 1):
        if not any(shatter_report(system, cand).shattered for cand in combinations(range(n), k)):
            return d
        d = k
    return d


def dual_vc_dimension(system):
    return levelwise(len(system.rows), lambda t: cells_nonempty(system, t))
