"""Reference Steinhaus overlap by one pass over all 2^m stage-m components.

`core_overlap` takes the same arguments and returns the same pairs as
`vclab.witness.core_overlap`, but sums the overlap lemma pair by pair: it
builds the 2^m left ends L_m(b) by their own recurrence, puts them and each
shift on one lattice, and for each component bisects for the at most two
components of the translate that can meet it.  It shares the lattice
bookkeeping with the digit recursion but not its grouping of the pairs, so
the tests require both to agree exactly.  A shift costs 2^m bisections, so
this oracle reaches stage 20 (about 5 s and 190 MB for six shifts).
"""

from bisect import bisect_right
from fractions import Fraction
from math import gcd


def left_ends(fc, m):
    """The left ends L_m(b), in units u_m, of the 2^m stage-m components in
    address order, by the recurrence L_s(2b) = 4 L_(s-1)(b) and
    L_s(2b+1) = 4 L_(s-1)(b) + 3p + 2^s (2q - p) of `vclab.cantor`, without
    its closed form `FatCantorSet.left`."""
    p, q = fc.removed_scale.numerator, fc.removed_scale.denominator
    lefts = [0]
    for s in range(1, m + 1):
        step = 3 * p + ((2 * q - p) << s)
        lefts = [left for x in lefts for left in (x << 2, (x << 2) + step)]
    return lefts


def core_overlap(fc, stage, shifts):
    """For each shift u, (|K ∩ (K + u)|, 2*limit - window - |u|) for the stage
    set K.  On 1/L with L = lcm(q 2^(2m+1), den u), k = L/(q 2^(2m+1)) and
    t = uL, the components are [kl, kl + kW] and the overlap is the sum over
    pairs of max(0, kW - |kl - kl' - t|).  Consecutive left ends differ by
    more than W, so only the first two kl' above kl - t - kW can add."""
    lefts, w = left_ends(fc, stage), fc.width(stage)
    unit = fc.removed_scale.denominator << (2 * stage + 1)
    lo, hi = fc.window
    base_num, base_den = (2 * fc.limit_measure() - (hi - lo)).as_integer_ratio()
    overlaps = []
    for shift in shifts:
        num, den = shift.as_integer_ratio()
        g = gcd(unit, den)
        k, t = den // g, num * (unit // g)
        ends, kw = [left * k for left in lefts], w * k
        total = 0
        for left in ends:
            i = bisect_right(ends, left - t - kw)
            for other in ends[i:i + 2]:
                total += max(0, kw - abs(left - other - t))
        overlaps.append((Fraction(total, unit * k),
                         Fraction(base_num * den - abs(num) * base_den, base_den * den)))
    return overlaps
