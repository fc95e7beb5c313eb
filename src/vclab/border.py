"""Border-measure experiments: the finite-resolution r-border proxy, its
decay on random closed interval unions, and the density-hypothesis report
contrasting sets whose every point carries local measure with the discrete
counterexample truncations.

The r-border of A within a window is the exact measure of the set of points
within r of both A and the window-complement of A.  For a fixed constructible
set it decays linearly in r (at most 4r per boundary point); for the
counterexample truncations at matched budgets it stays above the fat Cantor
measure, which is the computable form of the dichotomy this lab exhibits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .constructible import ConstructibleSet, Interval, locally_positive_measure


def _window_set(window) -> ConstructibleSet:
    if isinstance(window, ConstructibleSet):
        return window
    lo, hi = window
    return ConstructibleSet.interval(Fraction(lo), Fraction(hi))


def r_border_measure(a: ConstructibleSet, r, window) -> Fraction:
    """Exact measure of N_r(A) ∩ N_r(window \\ A), clipped to the window."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    win = _window_set(window)
    complement = win.difference(a)
    if a.is_empty or complement.is_empty:
        return Fraction(0)
    near_both = a.r_neighborhood(r).intersection(complement.r_neighborhood(r))
    return near_both.intersection(win).measure()


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

    def to_csv(self) -> dict:
        return {
            "set_id": self.set_id,
            "r": str(self.r),
            "r_border_measure": str(self.value),
            "r_border_measure_float": float(self.value),
            "bound_4r_boundary": str(self.bound),
            "within_bound": self.within_bound,
        }


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

    def to_json(self) -> dict:
        return {
            "hypothesis_set": self.hypothesis_set,
            "hypothesis_complement": self.hypothesis_complement,
            "border_measure": str(self.border_measure),
            "identity_holds": self.identity_holds,
            "consistent": self.consistent,
        }


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
