"""Border-measure experiments: the finite-resolution r-border proxy, its
decay on random closed interval unions, and the density-hypothesis report
contrasting sets whose every point carries local measure with the discrete
counterexample truncations.

The r-border of A within a window W is the measure of the points of W within r
of both A and W \\ A.  For the counterexample truncations at matched budgets it
stays above the fat Cantor measure; for a constructible A inside an interval W
it is at most 2r per boundary point.  Proof: let B = cl(A) ∩ cl(W \\ A), and x
in W within r of a in cl(A) and of c in cl(W \\ A), a < c say.  The greatest
point p of cl(A) in [a, c] is in B: if p < c, the segment (p, c) lies in the
interval W and misses A.  As p lies between a and c, x is within r of B, a set
of piece ends, so the r-border is the part of W within r of B and measures at
most 2r·|B| <= 2r·boundary_point_count(A), with equality for closed intervals
inside int W once 2r is at most every gap between their ends and W's.  The
decay table's 4r bound thus has slack of a factor 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .constructible import ConstructibleSet, Interval, locally_positive_measure, on_lattice


def _window_set(window) -> ConstructibleSet:
    return window if isinstance(window, ConstructibleSet) else ConstructibleSet.interval(*window)


def r_border_measure(a: ConstructibleSet, r, window) -> Fraction:
    """Exact measure of N_r(A) ∩ N_r(window \\ A), clipped to the window: one
    integer pass on the lattice of r and the ends of A, window \\ A and the
    window, as every end of N_r is an end ± r."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    win = _window_set(window)
    rest = win.difference(a)
    den, units = on_lattice([r, *(v for s in (a, rest, win) for piece in s.pieces for v in piece[:2])])
    i, j = 1 + 2 * len(a.pieces), 1 + 2 * (len(a.pieces) + len(rest.pieces))
    near = _overlaps(_overlaps(_grown(units[1:i], units[0]), _grown(units[i:j], units[0])), units[j:])
    return Fraction(sum(near[1::2]) - sum(near[::2]), den)


def _grown(ends: list[int], r: int) -> list[int]:
    """Sorted ranges lo, hi, lo, hi, ... widened by r, so merged across each gap of at most 2r."""
    gaps = [v for hi, lo in zip(ends[1:-1:2], ends[2::2]) if lo - hi > 2 * r for v in (hi + r, lo - r)]
    return [ends[0] - r, *gaps, ends[-1] + r] if ends else []


def _overlaps(xs: list[int], ys: list[int]) -> list[int]:
    """The nonempty intersections of two sorted lists of disjoint ranges, by two
    pointers: the range that ends first meets no later range of the other."""
    out, i, j = [], 0, 0
    while i < len(xs) and j < len(ys):
        lo, hi = max(xs[i], ys[j]), min(xs[i + 1], ys[j + 1])
        if lo < hi:
            out += (lo, hi)
        i, j = (i + 2, j) if xs[i + 1] == hi else (i, j + 2)
    return out


def boundary_point_count(a: ConstructibleSet) -> int:
    return sum(1 if lo == hi else 2 for lo, hi, _, _ in a.pieces)


def random_closed_union(rng: random.Random, window: tuple[Fraction, Fraction]) -> ConstructibleSet:
    """A random union of one to six disjoint closed intervals strictly inside
    the window (margins keep window-edge artifacts out of decay bounds), with
    ends on a grid of 720720 steps."""
    lo, hi = Fraction(window[0]), Fraction(window[1])
    inner_lo, inner_span = lo + (hi - lo) / 8, (hi - lo) * 3 / 4
    grid = 720720
    ticks = sorted(rng.sample(range(1, grid), 2 * rng.randrange(1, 7)))
    ends = [inner_lo + inner_span * Fraction(t, grid) for t in ticks]
    return ConstructibleSet.from_pieces(Interval(a, b) for a, b in zip(ends[::2], ends[1::2]))


@dataclass
class BorderDecayRow:
    set_id: int
    r: Fraction
    value: Fraction
    bound: Fraction
    within_bound: bool


def border_decay_experiment(
    sets: Sequence[ConstructibleSet], radii: Iterable, window
) -> list[BorderDecayRow]:
    """r-border values against the 4r * (boundary point count) bound for
    every (set, r) cell; values are monotone in r so the decay to 0 is
    visible directly in the table."""
    rows = []
    win = _window_set(window)
    for set_id, a in enumerate(sets):
        count = boundary_point_count(a)
        for r in radii:
            r = Fraction(r)
            value = r_border_measure(a, r, win)
            bound = 4 * r * count
            rows.append(BorderDecayRow(set_id, r, value, bound, value <= bound))
    return rows


@dataclass
class DensityReport:
    hypothesis_set: bool
    hypothesis_complement: bool
    border_measure: Fraction
    identity_holds: bool
    consistent: bool


def density_report(x: ConstructibleSet, window=None) -> DensityReport:
    """Evaluate the local-positive-measure hypothesis for the set and its
    complement, the exact border measure, and the border identity
    ∂X = cl(int X) ∩ cl(ext X); `consistent` records that the hypotheses,
    when both hold, force a null border and the identity.

    The complement is taken inside an ambient interval padded well beyond
    the union of the window and the set's hull, so bounded-window artifacts
    cannot fake or break either hypothesis.
    """
    ends = [*(window or ()), *(x.hull() or ())] or [0, 1]
    lo, hi = Fraction(min(ends)), Fraction(max(ends))
    pad = max(hi - lo, Fraction(1))
    ambient = ConstructibleSet.interval(lo - pad, hi + pad)
    complement = ambient.difference(x)

    hyp_set = locally_positive_measure(x)
    hyp_complement = locally_positive_measure(complement)
    border = x.border()
    border_measure = border.measure()
    exterior = complement.interior()
    identity_holds = border == x.closure_of_interior().intersection(exterior.closure())
    consistent = (not (hyp_set and hyp_complement)) or (
        border_measure == 0 and identity_holds
    )
    return DensityReport(hyp_set, hyp_complement, border_measure, identity_holds, consistent)


def random_constructible(rng: random.Random, window: tuple[Fraction, Fraction]) -> ConstructibleSet:
    """A random canonical set inside the window: a few intervals with random
    open/closed ends plus a few isolated points, all ends on a grid of 5040
    steps."""
    grid = 5040
    lo, hi = Fraction(window[0]), Fraction(window[1])

    def at(tick):
        return lo + (hi - lo) * Fraction(tick, grid)

    pieces = []
    n_iv, n_pt = rng.randrange(0, 4), rng.randrange(0, 3)
    for _ in range(n_iv):
        a, b = sorted((rng.randrange(grid), rng.randrange(grid)))
        if a < b:
            pieces.append(Interval(at(a), at(b), rng.random() < 0.5, rng.random() < 0.5))
    for _ in range(n_pt):
        p = at(rng.randrange(grid))
        pieces.append(Interval(p, p))
    return ConstructibleSet.from_pieces(pieces)
