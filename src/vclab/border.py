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
    """Exact measure of N_r(A) ∩ N_r(window \\ A), clipped to the window: the
    one-cell call of `border_decay_experiment`."""
    return border_decay_experiment([a], [r], window)[0].value


def _grown(ends: list[int], r: int) -> list[int]:
    """Sorted ranges lo, hi, lo, hi, ... widened by r, so merged across each gap of at most 2r."""
    gaps = [v for hi, lo in zip(ends[1::2], ends[2::2]) if lo - hi > 2 * r for v in (hi + r, lo - r)]
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
    ends lo + (hi - lo)(1/8 + (3/4)t/grid) for ticks t on a grid of 720720."""
    (ln, ld), (hn, hd) = Fraction(window[0]).as_integer_ratio(), Fraction(window[1]).as_integer_ratio()
    grid = 720720
    ticks = sorted(rng.sample(range(1, grid), 2 * rng.randrange(1, 7)))
    base, span, den = 8 * grid * ln * hd, hn * ld - ln * hd, 8 * grid * ld * hd
    ends = [Fraction(base + span * (grid + 6 * t), den) for t in ticks]
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
    visible directly in the table.  Every radius is checked before any cell.
    Per set, window \\ A is one sweep and one lattice holds the radii and the
    ends of A, window \\ A and the window (every end of N_r is an end ± r), so
    each cell is one integer pass."""
    rows = []
    radii = [Fraction(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValueError("radius must be positive")
    win, k = _window_set(window), len(radii)
    for set_id, a in enumerate(sets):
        rest = win.difference(a)
        den, units = on_lattice([*radii, *(v for s in (a, rest, win) for piece in s.pieces for v in piece[:2])])
        i, j = k + 2 * len(a.pieces), k + 2 * (len(a.pieces) + len(rest.pieces))
        a_ends, rest_ends, win_ends = units[k:i], units[i:j], units[j:]
        slope = 4 * boundary_point_count(a)
        for r, r_unit in zip(radii, units):
            near = _overlaps(_overlaps(_grown(a_ends, r_unit), _grown(rest_ends, r_unit)), win_ends)
            total, bound = sum(near[1::2]) - sum(near[::2]), slope * r_unit
            rows.append(BorderDecayRow(set_id, r, Fraction(total, den), Fraction(bound, den), total <= bound))
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
