"""Reference r-border measure in `ConstructibleSet` algebra.

`r_neighborhood` grows every piece of a set by r into a closed interval and
canonicalizes the union with `from_pieces`; `r_border_measure` intersects the
neighborhoods of A and of window \\ A, clips them to the window and takes the
measure, each step a boolean sweep over `Fraction` ends.  `vclab.border`
computes the same measure in one integer pass on the ends' lattice; the tests
require both to give the same `Fraction`.
"""

from fractions import Fraction

from vclab.constructible import ConstructibleSet, Interval


def r_neighborhood(a, r):
    """Union of closed balls of radius r around every component."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    return ConstructibleSet.from_pieces(Interval(lo - r, hi + r) for lo, hi, _, _ in a.pieces)


def r_border_measure(a, r, window):
    """Exact measure of N_r(A) ∩ N_r(window \\ A), clipped to the window."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    if not isinstance(window, ConstructibleSet):
        window = ConstructibleSet.interval(*window)
    complement = window.difference(a)
    if a.is_empty or complement.is_empty:
        return Fraction(0)
    near_both = r_neighborhood(a, r).intersection(r_neighborhood(complement, r))
    return near_both.intersection(window).measure()
