"""Fat Cantor set on [0,1]: at stage m an open middle of length
scale*4^(-m) is removed from each of the 2^(m-1) components, so the limit
keeps positive measure (3/5 with the default scale 4/5).

Besides materialized stages, this module provides O(stage) local queries
(descend along one component chain) so deep stages never have to be built:
the witness engine works hundreds of stages down, where a stage has 2^m
components.

Stage-m removed middles alternate between two branches by parity: odd
stages feed branch 0, even stages branch 1.  Both branches accumulate at
every point of the limit set, and their closures intersect exactly in it.

All walks run on an exact integer lattice and return Fractions only at the
API boundary.  Lattice lemma: write removed_scale = p/q in lowest terms and
u_s = 1/(q * 2^(2s+1)).  Every stage-s component endpoint and every edge of
a stage-s removed middle is an integer multiple of u_s.  By induction on s:
stage 0 is [0, 1] = [0, 2q] in units of u_0.  If [L, H] (integers, in units
of u_(s-1)) is a stage-(s-1) component, then since u_(s-1) = 4 u_s its ends
are 4L and 4H in units of u_s, its midpoint is 2(L + H), and the half-gap
(p/q) 4^(-s) / 2 = p u_s is exactly p.  So the stage-s middle is
(2(L+H) - p, 2(L+H) + p) and both children have integer ends.  Both
children are 2(H - L) - p wide, so every stage-s component has the common
width W_s = p + 2^s (2q - p) > p, and each middle fits strictly inside its
component.  A query point x = n/d joins the walk on the lattice scaled by d,
where it is an integer too, so no value is ever rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional

from .constructible import ConstructibleSet, Interval

def branch_of_stage(stage: int) -> int:
    """Which of the two open branches a stage's removed middles feed."""
    return 0 if stage % 2 == 1 else 1


@dataclass(frozen=True)
class FatCantorSet:
    """Removal schedule with closed-form stage measures.

    removed_scale is the total middle length removed per component at stage
    m, as a multiple of 4^(-m); it must stay below 1 so removals always fit
    strictly inside their component.
    """

    removed_scale: Fraction = Fraction(4, 5)

    def __post_init__(self):
        object.__setattr__(self, "removed_scale", Fraction(self.removed_scale))
        if not 0 < self.removed_scale < 1:
            raise ValueError("removed_scale must lie in (0, 1)")

    # ------------------------------------------------------------- formulas

    @property
    def window(self) -> tuple[Fraction, Fraction]:
        return (Fraction(0), Fraction(1))

    def stage_measure(self, m: int) -> Fraction:
        """Exact measure of stage m: 1 - (scale/2)(1 - 2^-m)."""
        return 1 - self.removed_scale / 2 * (1 - Fraction(1, 2**m))

    def limit_measure(self) -> Fraction:
        return 1 - self.removed_scale / 2

    def component_length(self, m: int) -> Fraction:
        return self.stage_measure(m) / 2**m

    def component_limit_measure(self, m: int) -> Fraction:
        """Exact limit measure inside each stage-m component (removals are
        spread uniformly over components, so this is limit/2^m)."""
        return self.limit_measure() / 2**m

    # ------------------------------------------------------------- lattice

    def _frame(self, stage: int, *values) -> tuple[int, list[int]]:
        """Place values on the stage lattice scaled by d: returns d, the
        least positive integer for which every v * d * q * 2^(2*stage+1) is
        an integer, and those integers."""
        unit = self.removed_scale.denominator << (2 * stage + 1)
        scaled = [Fraction(v) * unit for v in values]
        d = lcm(*(f.denominator for f in scaled))
        return d, [f.numerator * (d // f.denominator) for f in scaled]

    def _value(self, n: int, d: int, stage: int) -> Fraction:
        """The rational at integer n of the stage lattice scaled by d."""
        return Fraction(n, d * (self.removed_scale.denominator << (2 * stage + 1)))

    @staticmethod
    def _split(lo: int, hi: int, half: int, stage: int) -> tuple[int, int, int, int]:
        """Refine a previous-stage component [lo, hi] onto the stage lattice
        (4x finer) and cut out its middle: returns (lo, a, b, hi) there."""
        lo, hi = lo << 2, hi << 2
        mid = (lo + hi) >> 1
        a, b = mid - half, mid + half
        if a <= lo:
            raise ValueError(f"stage-{stage} gap does not fit inside its component")
        return lo, a, b, hi

    def _refine(self, comps, half, first: int, last: int):
        """Split every component stage by stage from `first` to `last`,
        yielding (stage, removed middles, components) on each stage's lattice."""
        for s in range(first, last + 1):
            gaps, nxt = [], []
            for lo, hi in comps:
                lo, a, b, hi = self._split(lo, hi, half, s)
                gaps.append((a, b))
                nxt += ((lo, a), (b, hi))
            comps = nxt
            yield s, gaps, comps

    def _walk(self, x, budget: int) -> tuple:
        """The descent behind `descend` and `component_of`: returns
        (kind, stage, lo, hi, n, d) with kind as in `descend`, and the
        interval and x itself (n) as integers of the stage lattice scaled by d."""
        d, (n,) = self._frame(0, x)
        lo, hi = 0, 2 * self.removed_scale.denominator * d
        if not lo <= n <= hi:
            return ("outside", 0, lo, hi, n, d)
        half = self.removed_scale.numerator * d
        for s in range(1, budget + 1):
            if n == lo or n == hi:
                return ("endpoint", s - 1, lo, hi, n, d)
            n <<= 2
            lo, a, b, hi = self._split(lo, hi, half, s)
            if n <= a:
                hi = a
            elif n >= b:
                lo = b
            else:
                return ("gap", s, a, b, n, d)
        kind = "endpoint" if n == lo or n == hi else "component"
        return (kind, budget, lo, hi, n, d)

    # -------------------------------------------------------- construction

    def stage_components(self, m: int) -> list[tuple[Fraction, Fraction]]:
        comps = [(0, 2 * self.removed_scale.denominator)]
        for _, _, comps in self._refine(comps, self.removed_scale.numerator, 1, m):
            pass
        return [(self._value(lo, 1, m), self._value(hi, 1, m)) for lo, hi in comps]

    def stage_set(self, m: int) -> ConstructibleSet:
        """Stage m as 2^m closed intervals."""
        if m < 0:
            raise ValueError("stage must be >= 0")
        return ConstructibleSet(
            tuple(Interval(lo, hi, True, True) for lo, hi in self.stage_components(m))
        )

    def removed_intervals(self, upto: int) -> Iterator[tuple[int, Fraction, Fraction]]:
        """All removed middles of stages <= upto, in (stage, position) order."""
        comps = [(0, 2 * self.removed_scale.denominator)]
        for s, gaps, _ in self._refine(comps, self.removed_scale.numerator, 1, upto):
            for a, b in gaps:
                yield (s, self._value(a, 1, s), self._value(b, 1, s))

    # ------------------------------------------------------- local queries

    def descend(self, x: Fraction, budget: int):
        """Walk x's component chain for `budget` stages.

        Returns one of
          ("outside",)
          ("gap", stage, a, b)          x strictly inside a removed middle
          ("endpoint", stage, lo, hi)   x is a component endpoint (in the limit)
          ("component", budget, lo, hi) still inside a component at the budget
        """
        kind, stage, lo, hi, _, d = self._walk(x, budget)
        if kind == "outside":
            return ("outside",)
        return (kind, stage, self._value(lo, d, stage), self._value(hi, d, stage))

    def component_of(self, x: Fraction, m: int) -> Optional[Interval]:
        """The stage-m component containing x, without materializing stage m.

        A component endpoint never falls inside a later removed middle: from
        the stage where x first is an endpoint, every component containing it
        keeps that end and has the common stage width W_m, so the walk stops
        there."""
        kind, stage, lo, hi, n, d = self._walk(x, m)
        if kind in ("outside", "gap"):
            return None
        if stage < m:
            p, q = self.removed_scale.numerator, self.removed_scale.denominator
            shift, width = 2 * (m - stage), (p + ((2 * q - p) << m)) * d  # W_m, scaled
            if n == lo:
                lo <<= shift
                hi = lo + width
            else:
                hi <<= shift
                lo = hi - width
        return Interval(self._value(lo, d, m), self._value(hi, d, m), True, True)

    def child_gaps(
        self, lo: Fraction, hi: Fraction, from_stage: int, depth: int
    ) -> list[tuple[int, int, Interval]]:
        """Removed middles strictly inside the stage-`from_stage` component
        [lo, hi], down to relative depth `depth`, as (branch, stage, interval)
        triples.  Their edges are persistent points of the limit set."""
        d, comp = self._frame(from_stage, lo, hi)
        half = self.removed_scale.numerator * d
        return [
            (branch_of_stage(s), s,
             Interval(self._value(a, d, s), self._value(b, d, s), False, False))
            for s, gaps, _ in self._refine([comp], half, from_stage + 1, from_stage + depth)
            for a, b in gaps
        ]

    def boundary_pair(self) -> "FatCantorSet":
        """The set itself: the witness engine reads its two parity branches
        and closed-form density data directly."""
        return self
