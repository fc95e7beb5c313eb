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

Decode lemma: whether an integer r is L_n(b) for some address b < 2^n can
be decided without spread4, a run of low bits of b at a time.  Write 3p =
2^t a with a odd, take h >= 1 with 2h + t <= n, and split b = b0 + 2^h b1
with b0 < 2^h.  As spread4(b) = spread4(b0) + 4^h spread4(b1),
L_n(b) = 3p spread4(b0) + (2q - p) 2^n b0 + 4^h L_(n-h)(b1).  Modulo
2^(t+2h), which divides both 2^n and 3p 4^h, this is 2^t a spread4(b0), and
spread4(b0) < 4^h.  So r = L_n(b) for some b < 2^n if and only if r is
divisible by 2^t, x = (r / 2^t) a^(-1) mod 4^h has every base-4 digit 0
or 1 (then x = spread4(b0) and those digits are the binary digits of b0),
and (r - 3p x - (2q - p) 2^n b0) / 4^h, an integer by the congruence, is
L_(n-h)(b1) for some b1 < 2^(n-h).  Taking h = floor((n - t)/2) fixes
about half the remaining bits per round, so about log2(n) rounds of
big-integer operations leave a short address.  That one is read greedily:
bit i of b adds c_i = 3p 4^i + (2q - p) 2^(n+i), more than all lower c_j
together, so b decodes top bit first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .constructible import ConstructibleSet, Interval

def branch_of_stage(stage: int) -> int:
    """Which of the two open branches a stage's removed middles feed."""
    return 0 if stage % 2 == 1 else 1


def _is_left_end(p: int, q: int, n: int, rest: int) -> bool:
    """Whether rest = L_n(b) = 3p spread4(b) + (2q - p) 2^n b for an address
    b < 2^n, by the decode lemma of the module docstring: while n >= 16 and
    h = floor((n - t)/2) >= 1, a round fixes the low h bits of b from rest
    mod 2^(t + 2h) and leaves L_(n-h) of the high bits; the last bits are
    read greedily, top bit first.  The base-2 `format` and `int` are exempt
    from Python's int-string digit limit, which covers only bases that are
    not powers of two, so a stage-5,000 address converts."""
    t = (3 * p & -3 * p).bit_length() - 1
    while n >= 16 and (h := (n - t) // 2) > 0:
        mask = (1 << 2 * h) - 1
        spread = (rest >> t & mask) * pow(3 * p >> t, -1, mask + 1) & mask
        if rest & ((1 << t) - 1) or spread & mask // 3 * 2:
            return False
        low = int(format(spread, "b")[::2], 2)
        rest = (rest - 3 * p * spread - ((2 * q - p) * low << n)) >> 2 * h
        n -= h
    spread, step = 3 * p << 2 * n, (2 * q - p) << 2 * n
    for _ in range(n):
        spread >>= 2
        step >>= 1
        if rest >= spread + step:
            rest -= spread + step
    return rest == 0


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
        A stage-s middle is p/(q 4^s) wide, whose reduced denominator
        q 4^s / gcd(p, 4^s) exceeds 4^s as q > p, so a den < 4^s refuses the
        stage before its lattice u_s is built.  Once the width holds, lo/den
        is 2p lo/(hi - lo) units of u_s.  The stage-s middles are
        (4L + W_s, 4L + W_s + 2p) on u_s with L = L_n(b), n = s - 1, b < 2^n,
        and `_is_left_end` decodes L on its own, not through `left`.  With
        3p = 2^t a, a odd, and 2h + t <= n, L_n(b) = 2^t a spread4(b mod 2^h)
        modulo 2^(t+2h), as (2q - p) 2^n b and 3p 4^h spread4(b >> h) vanish
        there; so the low h bits of b are the base-4 digits, each 0 or 1, of
        (L / 2^t) a^(-1) mod 4^h, and what is left is 4^h L_(n-h)(b >> h)
        (the decode lemma of the module docstring)."""
        p, q = self.removed_scale.numerator, self.removed_scale.denominator
        if stage < 1:
            return f"stage {stage} removes no middle"
        wide = den.bit_length() > 2 * stage and (hi - lo) * (q << 2 * stage + 1) == 2 * p * den
        if wide:
            left, off = divmod(2 * p * lo, hi - lo)
            rest, off4 = divmod(left - self.width(stage), 4)
            if not (off or off4) and _is_left_end(p, q, stage - 1, rest):
                return None
        why = f"a removed middle of stage {stage}" if wide else f"as wide as a stage-{stage} middle"
        return f"({Fraction(lo, den)}, {Fraction(hi, den)}) is not {why}"

    # -------------------------------------------------------- construction

    def stage_components(self, m: int) -> list[tuple[Fraction, Fraction]]:
        """The 2^m components [L, L + W_m] of stage m, in address order."""
        w = self.width(m)
        return [(self.value(m, left), self.value(m, left + w))
                for left in (self.left(m, b) for b in range(1 << m))]

    def stage_set(self, m: int) -> ConstructibleSet:
        """Stage m as 2^m closed intervals."""
        return ConstructibleSet(tuple([Interval(lo, hi) for lo, hi in self.stage_components(m)]))

    def removed_intervals(self, upto: int) -> Iterator[tuple[int, Fraction, Fraction]]:
        """All removed middles of stages <= upto, in (stage, position) order;
        stage 0 has one component and no middle."""
        for s in range(1, upto + 1):
            for b in range(1 << (s - 1)):
                lo, hi = self.middle(s, b)
                yield (s, self.value(s, lo), self.value(s, hi))

    def boundary_pair(self) -> "FatCantorSet":
        """The set itself: the witness engine reads its two parity branches
        and closed-form density data directly."""
        return self
