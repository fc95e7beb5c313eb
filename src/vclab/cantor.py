"""Fat Cantor set on [0,1]: at stage m an open middle of length
scale*4^(-m) is removed from each of the 2^(m-1) components, so the limit
keeps positive measure (3/5 with the default scale 4/5).

Besides materialized stages, this module gives every stage-s component and
removed middle a closed-form position from its binary address, so deep
stages never have to be built: the witness engine works hundreds of stages
down, where a stage has 2^s components.

Stage-m removed middles alternate between two branches by parity: odd
stages feed branch 0, even stages branch 1.  Both branches accumulate at
every point of the limit set, and their closures intersect exactly in it.

All positions are exact integers on a stage lattice, and become Fractions
only at the API boundary.  Lattice lemma: write removed_scale = p/q in
lowest terms and u_s = 1/(q * 2^(2s+1)).  Every stage-s component endpoint
and every edge of a stage-s removed middle is an integer multiple of u_s.
By induction on s: stage 0 is [0, 1] = [0, 2q] in units of u_0.  If [L, H]
(integers, in units of u_(s-1)) is a stage-(s-1) component, then since
u_(s-1) = 4 u_s its ends are 4L and 4H in units of u_s, its midpoint is
2(L + H), and the half-gap (p/q) 4^(-s) / 2 = p u_s is exactly p.  So the
stage-s middle is (2(L+H) - p, 2(L+H) + p) and both children have integer
ends.  Both children are 2(H - L) - p wide, so every stage-s component has
the common width W_s = p + 2^s (2q - p) > p, and each middle fits strictly
inside its component.

Address formula: number the stage-s components by binary addresses
b < 2^s, whose top bit is the stage-1 choice (0 left, 1 right) and whose
low bit the stage-s choice, so components 2b and 2b + 1 of stage s are the
children of component b of stage s-1.  Then component b has left end
L_s(b) = 3p spread4(b) + (2q - p) 2^s b, where spread4 reads b's binary
digits in base 4.  By induction on s: L_0(0) = 0.  By the lemma the children
of [L, L + W_(s-1)] start at 4L and at 4L + 2W_(s-1) + p = 4L + 3p +
2^s (2q - p); as spread4(2b + c) = 4 spread4(b) + c, the formula gives both
L_s(2b) = 4 L_(s-1)(b) and L_s(2b+1) = 4 L_(s-1)(b) + 3p + 2^s (2q - p).
So the stage-s middle cut from component b of stage s-1 is
(L_s(2b) + W_s, L_s(2b+1)), 2p wide.  A component endpoint stays one at every
later stage: the left end of b is the left end of child 2b, the right end the
right end of child 2b + 1.  So the stage-m component holding an end of
stage-s component b is b >> (s - m) for m <= s, and for m > s it is
b << (m - s), plus 2^(m-s) - 1 for a right end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

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

    # ------------------------------------------------------------- lattice

    def value(self, s: int, n: int) -> Fraction:
        """The rational n u_s at integer n of the stage-s lattice."""
        return Fraction(n, self.removed_scale.denominator << (2 * s + 1))

    def width(self, s: int) -> int:
        """W_s, the common width of the stage-s components, in units u_s."""
        p, q = self.removed_scale.numerator, self.removed_scale.denominator
        return p + ((2 * q - p) << s)

    def left(self, s: int, b: int) -> int:
        """The left end, in units u_s, of the stage-s component with address b."""
        p, q = self.removed_scale.numerator, self.removed_scale.denominator
        return 3 * p * int(format(b, "b"), 4) + ((2 * q - p) * b << s)

    def middle(self, s: int, b: int) -> tuple[int, int]:
        """The stage-s middle cut from component b of stage s-1, in units u_s."""
        lo = self.left(s, 2 * b) + self.width(s)
        return lo, lo + 2 * self.removed_scale.numerator

    @staticmethod
    def address(s: int, b: int, right: bool, m: int) -> int:
        """The address of the stage-m component holding the left end (or the
        right end) of the stage-s component with address b."""
        if m <= s:
            return b >> (s - m)
        return ((b + 1) << (m - s)) - 1 if right else b << (m - s)

    def middle_defect(self, stage: int, lo: int, hi: int, den: int):
        """Why (lo/den, hi/den) is not a removed middle of the stage, or None.
        A stage-s middle is p/(q 4^s) wide, a denominator above 4^s, so
        den <= 4^s refuses the stage before its lattice u_s is built.  The
        address is decoded on its own, not through `left`: the stage-s middles
        are (4L + 2W_(s-1) - p, 4L + 2W_(s-1) + p) on u_s, L = L_(s-1)(b) for
        b < 2^(s-1).  Bit i of b adds c_i = 3p 4^i + (2q - p) 2^(s-1+i), more
        than all lower c_j together, so b decodes top bit first."""
        p, q = self.removed_scale.numerator, self.removed_scale.denominator
        if stage < 1:
            return f"stage {stage} removes no middle"
        wide = den.bit_length() > 2 * stage and (hi - lo) * (q << 2 * stage + 1) == 2 * p * den
        if wide:
            left, off = divmod(lo * (q << 2 * stage + 1), den)
            rest, off4 = divmod(left - 2 * self.width(stage - 1) + p, 4)
            spread, step = 3 * p << 2 * (stage - 1), (2 * q - p) << (2 * stage - 2)
            for _ in range(stage - 1):
                spread >>= 2
                step >>= 1
                if rest >= spread + step:
                    rest -= spread + step
            if not (off or off4 or rest):
                return None
        why = f"a removed middle of stage {stage}" if wide else f"as wide as a stage-{stage} middle"
        return f"({Fraction(lo, den)}, {Fraction(hi, den)}) is not {why}"

    # -------------------------------------------------------- construction

    def _left_ends(self, last: int) -> Iterator[list[int]]:
        """The left ends of the stage-s components in address order, in units
        u_s, for s = 0..last, by the recurrence L_s(2b) = 4 L_(s-1)(b) and
        L_s(2b+1) = 4 L_(s-1)(b) + 3p + 2^s (2q - p) proved above."""
        p, q = self.removed_scale.numerator, self.removed_scale.denominator
        lefts = [0]
        yield lefts
        for s in range(1, last + 1):
            step = 3 * p + ((2 * q - p) << s)
            lefts = [left for x in lefts for left in (x << 2, (x << 2) + step)]
            yield lefts

    def stage_components(self, m: int) -> list[tuple[Fraction, Fraction]]:
        """The 2^m components [L, L + W_m] of stage m, in address order."""
        for lefts in self._left_ends(m):
            pass
        w = self.width(m)
        return [(self.value(m, left), self.value(m, left + w)) for left in lefts]

    def stage_set(self, m: int) -> ConstructibleSet:
        """Stage m as 2^m closed intervals."""
        if m < 0:
            raise ValueError("stage must be >= 0")
        return ConstructibleSet(tuple([Interval(lo, hi) for lo, hi in self.stage_components(m)]))

    def removed_intervals(self, upto: int) -> Iterator[tuple[int, Fraction, Fraction]]:
        """All removed middles (L_s(2b) + W_s, L_s(2b+1)) of stages <= upto, in
        (stage, position) order; stage 0 has one component and no middle."""
        for s, lefts in enumerate(self._left_ends(upto)):
            w = self.width(s)
            for left, right in zip(lefts[::2], lefts[1::2]):
                yield (s, self.value(s, left + w), self.value(s, right))

    def boundary_pair(self) -> "FatCantorSet":
        """The set itself: the witness engine reads its two parity branches
        and closed-form density data directly."""
        return self
