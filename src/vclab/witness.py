"""Construction and independent verification of depth-n shattering
certificates for the two parity branches of a fat Cantor set: disjoint open
sets whose closures meet exactly in the positive-measure limit set.

A depth-n certificate consists of translators g_0..g_{n-1} and points x_p,
one per bit pattern p of length n, such that g_k + x_p lands strictly inside
branch bit p[k] for every k and p.  All 2^n * n memberships are exact
rational facts against concrete removed middles, so a certificate can be
re-checked without trusting anything the construction did.

The construction proceeds level by level.  Points always stay on persistent
limit points (component endpoints): a new point for pattern p is the edge of
a removed middle of branch p[level] lying inside its parent's component,
and the whole level shares one translator small enough to push every edge
strictly into its adjacent middle.  The admissible translator range comes
from a quantitative difference-set bound: if the limit set keeps measure f
inside every length-L component and 2f > L, then for every |u| <= (2f - L)/2
it meets its own u-translate inside that component in positive measure.
Per-level slacks shrink by a bounded factor per level (the next level's
components must fit inside the current slack balls), which keeps stage
depth singly exponential in the witness depth.

Construction, checking and writing run on integers: a ShatterWitness holds
each field as an integer n for n/den, den = q 2^e the last level's lattice
below (for a certificate read from text, the lcm of its denominators), and
Fractions appear only where text is read and in failure messages.
Level-lattice lemma: with removed_scale = p/q and u_s = 1/(q 2^(2s+1)) as in
`vclab.cantor`, let T_m = 1/(q 2^(2m+13)) = u_(m+2)/256.  At a level of stage
m every point, translator, middle edge, value and slack is an integer
multiple of T_m, and the level's translator is +-min(2p, 8((2q - p) 2^m - p))
r T_m for the drawn ratio r/256.  Proof: stages never decrease, and a point
placed at stage m' <= m is an edge of a stage-(m'+1) or stage-(m'+2) middle,
so points and middle edges lie on u_s for s <= m + 2, and
u_s = 4^(m+2-s) u_(m+2).  Every stage-s middle is 2p u_s wide, so the pool's
narrowest is 2p u_(m+2).  The radius (2f - L)/2 has
f = (1 - p/(2q)) 2^-m = (2q - p) 2^(m+4) u_(m+2) and L = W_m u_m =
16 (p + 2^m (2q - p)) u_(m+2), so it is 8((2q - p) 2^m - p) u_(m+2) > 0.
The smaller of the two times r/256 lies on T_m, earlier translators on
T_m' = 4^(m-m') T_m, and values and slacks are their sums and differences.
So u_s reaches T_m by a left shift of 2(m - s) + 12 bits, and the deepening
test W_m' u_m' < sigma T_m, for the least slack sigma on T_m of the previous
level, reads W_m' << (2m + 13) < sigma << (2m' + 1).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from operator import attrgetter

from .cantor import FatCantorSet, branch_of_stage
from .constructible import on_lattice
from .errors import BudgetExceededError
from .rational import parse_rational


@dataclass(frozen=True)
class WitnessCondition:
    """One exact membership fact on its certificate's lattice 1/den: value =
    g_level + x_pattern lies strictly inside (lo, hi), an interval of branch
    pattern[level] at `stage`, with slack min(value - lo, hi - value)."""

    level: int
    pattern: str
    value: int
    lo: int
    hi: int
    stage: int
    slack: int


@dataclass
class ShatterWitness:
    """A depth-n shattering certificate: each translator, point, value,
    middle end and slack is an integer n standing for the rational n/den."""

    depth: int
    den: int
    translators: tuple[int, ...]
    points: dict[str, int]
    stage_bound: int
    conditions: tuple[WitnessCondition, ...] = ()

    def dumps(self) -> str:
        """The JSON text `json.dumps(..., sort_keys=True, indent=2)` gives with
        each field n as str(Fraction(n, den)), written directly in lowest terms:
        the power of two shared by n and den is the lowest set bit of n | den,
        and the rest of gcd(n, den) is gcd(n, den's odd part), q for den = q 2^e.
        Each divisor's denominator and each distinct middle are written once,
        and conditions go in (level, pattern) order."""
        den, divisors, middles = self.den, {}, {}
        odd = den // (top := den & -den)

        def write(n: int) -> str:
            g = gcd(n, odd) * ((b := n | top) & -b)
            if (tail := divisors.get(g)) is None:
                tail = divisors[g] = f"/{den // g}" if g < den else ""
            return f"{n // g}{tail}"

        def row(c: WitnessCondition) -> str:
            if (ends := middles.get((c.lo, c.hi))) is None:
                ends = middles[c.lo, c.hi] = (write(c.lo), write(c.hi))
            return (f'    {{\n      "hi": "{ends[1]}",\n      "level": {c.level},\n      "lo": "{ends[0]}",\n'
                    f'      "pattern": {_quote(c.pattern)},\n      "slack": "{write(c.slack)}",\n'
                    f'      "stage": {c.stage},\n      "value": "{write(c.value)}"\n    }}')

        conditions = ",\n".join(map(row, sorted(self.conditions, key=attrgetter("level", "pattern"))))
        points = ",\n".join(f'    {_quote(p)}: "{write(x)}"' for p, x in sorted(self.points.items()))
        translators = ",\n".join(f'    "{write(g)}"' for g in self.translators)
        return (
            f'{{\n  "conditions": {_nest("[]", conditions)},\n  "depth": {self.depth},\n'
            f'  "points": {_nest("{}", points)},\n  "stage_bound": {self.stage_bound},\n'
            f'  "translators": {_nest("[]", translators)}\n}}\n'
        )

    @classmethod
    def loads(cls, text: str) -> "ShatterWitness":
        """The certificate of a `dumps` text, on the lcm of its denominators."""
        d = json.loads(text)
        den, units = on_lattice([parse_rational(v) for v in (*d["translators"], *d["points"].values(), *(
            c[f] for c in d["conditions"] for f in ("value", "lo", "hi", "slack")))])
        ints = iter(units)
        translators = tuple(next(ints) for _ in d["translators"])
        points = {p: next(ints) for p in d["points"]}
        conditions = tuple(WitnessCondition(int(c["level"]), str(c["pattern"]), next(ints), next(ints),
                                            next(ints), int(c["stage"]), next(ints)) for c in d["conditions"])
        return cls(int(d["depth"]), den, translators, points, int(d["stage_bound"]), conditions)


def _nest(brackets: str, items: str) -> str:
    """A top-level member's array or object around its indented items."""
    return f"{brackets[0]}\n{items}\n  {brackets[1]}" if items else brackets


@dataclass
class VerificationResult:
    ok: bool
    failures: list = field(default_factory=list)


# --------------------------------------------------------------------------
# difference-set bookkeeping


def steinhaus_neighborhood(fc: FatCantorSet) -> tuple[Fraction, Fraction]:
    """Quantitative difference-set neighborhood: returns (r, d) such that for
    every |u| <= r the limit set meets its own u-translate in measure >= d.

    With f the limit measure and w the window length, r = d = (2f - w)/2,
    which is (1 - s)/2 > 0 for removed scale s.
    """
    lo, hi = fc.window
    r = (2 * fc.limit_measure() - (hi - lo)) / 2
    return r, r


def core_overlap(fc: FatCantorSet, stage: int, shifts) -> list[tuple[Fraction, Fraction]]:
    """For each shift u (an int or a Fraction), the exact measure of
    K ∩ (K + u) for the stage set K, together with the certified floor
    2*limit - window - |u| for the limit set.

    Overlap lemma: with W = W_m and the left ends L_m(b) of `vclab.cantor`,
    let U = q 2^(2m+1) (so u_m = 1/U), L = lcm(U, den(u)), k = L/U and
    t = uL, an integer.  On 1/L the stage-m components are [kl, kl + kW] for
    l = L_m(b), b < 2^m, and then
    |K ∩ (K + u)| L = sum over pairs (b, b') of max(0, kW - |kl - kl' - t|).
    Proof: two closed intervals of width w at offset d meet in width
    max(0, w - |d|).  The components of K are pairwise disjoint closed
    intervals, and so are those of K + u, so the pieces
    [kl, kl + kW] ∩ [kl' + t, kl' + t + kW] of distinct pairs are disjoint,
    and the measure is the sum of their widths.

    Digit recursion: bit i of b adds c_i = 3p 4^i + (2q - p) 2^(m+i) to
    L_m(b), so kl - kl' - t = -(t - k sum_i e_i c_i) with
    e_i = bit_i(b) - bit_i(b') in {-1, 0, 1}.  A digit with e_i = +-1 fixes
    both bits and one with e_i = 0 has two bit pairs, so each e stands for
    2^(#zeros) pairs and the sum is
    sum over e of 2^(#zeros) max(0, kW - |t - k sum_i e_i c_i|).
    Walk the digits top down, holding each residual r = t - k sum_(j>=i) e_j c_j
    with the number of pairs it stands for: digit i sends r to r (times 2) and
    to r -+ k c_i (times 1).  The digits below i move r by at most k S_i,
    S_i = sum_(j<i) c_j, so a residual with |r| >= k(S_i + W) ends at
    |r| >= kW and adds nothing: it is dropped.  Two prefixes with equal
    residuals have the same continuations, so they merge into one residual
    with the summed count.  S_m + W = U, so the start {t: 1} survives only
    for |u| < 1, and S_0 + W = W, so what survives digit 0 is exactly the
    positive terms.  As c_i = S_i + W + 2p 4^i, the kept band
    (-k(S_i + W), k(S_i + W)) is narrower than the distance 2k c_i between
    r - k c_i and r + k c_i, so at most one of the two survives.  A shift at
    stage m holds about 2^(0.6 m) residuals at the default scale, and about
    phi^m for u = 1/3 at a removed scale near 0, the costliest case found.
    As |K ∩ (K - u)| = |K ∩ (K + u)| (translate by u), each |u| is computed
    once, building only the two Fractions returned for it."""
    if stage < 0:
        raise ValueError("stage must be >= 0")
    p, q = fc.removed_scale.numerator, fc.removed_scale.denominator
    w, unit = fc.width(stage), q << (2 * stage + 1)
    digits = [3 * p * 4**i + ((2 * q - p) << (stage + i)) for i in reversed(range(stage))]
    lo, hi = fc.window
    base_num, base_den = (2 * fc.limit_measure() - (hi - lo)).as_integer_ratio()
    keys, known = [], {}
    for shift in shifts:
        num, den = shift.as_integer_ratio()
        num = abs(num)
        keys.append((num, den))
        if (num, den) in known:
            continue
        g = gcd(unit, den)
        k, t = den // g, num * (unit // g)
        reach = k * unit
        residuals = {t: 1} if t < reach else {}
        for digit in digits:
            step = k * digit
            reach -= step
            merged = {}
            for r, n in residuals.items():
                # |r| < reach + step here, so r - step < reach and r + step > -reach.
                if -reach < r < reach:
                    merged[r] = merged.get(r, 0) + 2 * n
                if r > step - reach:
                    merged[r - step] = merged.get(r - step, 0) + n
                elif r < reach - step:
                    merged[r + step] = merged.get(r + step, 0) + n
            residuals = merged
        kw = k * w
        total = sum(n * (kw - abs(r)) for r, n in residuals.items())
        known[num, den] = (Fraction(total, unit * k),
                           Fraction(base_num * den - num * base_den, base_den * den))
    return [known[key] for key in keys]


# --------------------------------------------------------------------------
# construction


def _bitstrings(k: int) -> list[str]:
    return [format(i, f"0{k}b") for i in range(2**k)]


def construct_witness(fc: FatCantorSet, depth: int, seed: int = 0,
                      stage_budget: int = 2000) -> ShatterWitness:
    """Build a depth-n certificate level by level.

    At each level the engine deepens the stage until every current point's
    component fits strictly inside its slack ball (so old conditions survive
    any choice within the component), then draws one small translator and,
    per pattern, one removed-middle edge of the right branch inside the
    parent component.  Raises BudgetExceededError with the deepest completed
    level as partial witness when a budget runs out.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if stage_budget < 0:
        raise ValueError("stage budget must be >= 0")
    if depth == 0:
        return ShatterWitness(0, 1, (), {}, 0, ())

    p, q = fc.removed_scale.numerator, fc.removed_scale.denominator
    rng = random.Random(f"witness/{seed}")
    # The completed levels' translators, points and conditions (as field
    # tuples), each computed once on the last level's lattice T_m = 1/(q 2^e).
    translators, points, conditions, e, m = [], {"": 0}, [], 13, 0
    # Each point as (stage s, address b, right end?): it is that end of the
    # stage-s component b, so its component at every stage is known.
    ends = {"": (0, 0, False)}
    gaps = {}  # pattern prefix -> (lo, hi, stage) of its removed middle on u_stage

    def certificate() -> ShatterWitness:
        # The completed levels, read before a level replaces them.
        return ShatterWitness(len(translators), q << e, tuple(translators), points,
                              max((c[5] for c in conditions), default=0),
                              tuple(WitnessCondition(*c) for c in conditions))

    for level in range(depth):
        patterns = sorted(points)
        # Deepen until components fit inside every slack ball and are
        # pairwise distinct.
        sigma = min((c[-1] for c in conditions), default=None)
        while True:
            if m > stage_budget:
                raise BudgetExceededError(f"stage budget exhausted while separating level {level}",
                                          partial=certificate())
            if sigma is None or fc.width(m) << e < sigma << (2 * m + 1):
                comps = {pat: fc.address(*ends[pat], m) for pat in patterns}
                if len(set(comps.values())) == len(patterns):
                    break
            m += 1
        lattice = 2 * m + 13

        # One shared translator for the level, small enough to push any pool
        # gap's edge strictly inside it, and well inside the difference-set
        # radius.  A pool offers gaps of both branches: the removed middles
        # of the next two stages.
        pools = {pat: [(s, b, *fc.middle(s, b)) for s, b in
                       ((m + 1, c), (m + 2, 2 * c), (m + 2, 2 * c + 1))] for pat, c in comps.items()}
        ratio = rng.randrange(96, 161)  # r/256 in [3/8, 5/8]
        sign = rng.choice((1, -1))
        g_level = sign * min(2 * p, 8 * (((2 * q - p) << m) - p)) * ratio

        # The two patterns sharing a parent take gaps of different branches
        # from its pool, and distinct parents have disjoint pools, so no gap
        # and no gap edge is taken twice.  The pool's two stages feed
        # different branches, so each pattern chooses within one stage.
        new_points = {}
        for pattern in _bitstrings(level + 1):
            parent, bit = pattern[:-1], int(pattern[-1])
            stage, b, lo, hi = rng.choice([g for g in pools[parent] if branch_of_stage(g[0]) == bit])
            # The lower edge is the right end of component 2b, the upper edge
            # the left end of component 2b + 1.
            if g_level > 0:
                x, ends[pattern] = lo, (stage, 2 * b, True)
            else:
                x, ends[pattern] = hi, (stage, 2 * b + 1, False)
            new_points[pattern] = x << (lattice - 2 * stage - 1)
            gaps[pattern] = (lo, hi, stage)

        # The conditions of every level k <= this one at the new points: level
        # k's middle is the one the pattern's length-(k+1) prefix took, put on
        # the new lattice once.
        new_translators = [g << (lattice - e) for g in translators] + [g_level]
        middles = {prefix: (lo << (lattice - 2 * s - 1), hi << (lattice - 2 * s - 1), s)
                   for prefix, (lo, hi, s) in gaps.items()}
        new_conditions = []
        for k, g in enumerate(new_translators):
            for pattern, x in new_points.items():
                lo, hi, stage = middles[pattern[: k + 1]]
                value = g + x
                below, above = value - lo, hi - value
                if below <= 0 or above <= 0:
                    raise BudgetExceededError(f"edge placement failed for pattern {pattern}" if k == level
                                              else "inherited condition broke; budgets too tight",
                                              partial=certificate())
                new_conditions.append((k, pattern, value, lo, hi, stage, min(below, above)))
        translators, points, conditions, e = new_translators, new_points, new_conditions, lattice

    return certificate()


# --------------------------------------------------------------------------
# verification


def verify_witness(witness: ShatterWitness, fc: FatCantorSet) -> VerificationResult:
    """Check every recorded field of a certificate in closed form, with no
    membership walk, on its integers over den.  Per condition (k, p):
    value = g_k + x_p, lo < value < hi, slack = min(value - lo, hi - value),
    and (lo, hi) a removed middle of the recorded stage feeding branch p[k]
    (`FatCantorSet.middle_defect`, once per distinct middle).  Exactly one
    condition per (level, pattern), and stage_bound the top stage.  Failures
    are (level, pattern, message), with rationals as Fractions."""
    depth, den, points, translators, conditions = (witness.depth, witness.den, witness.points,
                                                   witness.translators, witness.conditions)
    top = max((c.stage for c in conditions), default=0)
    failures = [("structure", "", why) for bad, why in (
        (set(points) != (set(_bitstrings(depth)) if depth else set()), "point patterns do not match the depth"),
        (len(set(points.values())) != len(points), "points are not pairwise distinct"),
        (len(translators) != depth, "translator count does not match the depth"),
        (sorted((c.level, c.pattern) for c in conditions) != [
            (k, pattern) for k in range(depth) for pattern in sorted(points)],
         "not exactly one condition per level and pattern"),
        (witness.stage_bound != top, f"stage bound {witness.stage_bound} is not the top stage {top}"),
    ) if bad]
    if failures:
        return VerificationResult(False, failures)
    middles = {}
    for c in conditions:
        k, pattern, value, lo, hi = c.level, c.pattern, c.value, c.lo, c.hi
        if value != translators[k] + points[pattern]:
            failures.append((k, pattern, f"value {Fraction(value, den)} is not g_{k} + x_{pattern}"))
        below, above = value - lo, hi - value
        if below <= 0 or above <= 0:
            failures.append((k, pattern, f"{Fraction(value, den)} is not strictly inside "
                                         f"({Fraction(lo, den)}, {Fraction(hi, den)})"))
        elif c.slack != min(below, above):
            failures.append((k, pattern, f"slack {Fraction(c.slack, den)} is not "
                                         f"{Fraction(min(below, above), den)}"))
        if branch_of_stage(c.stage) != int(pattern[k]):
            failures.append((k, pattern, f"stage {c.stage} feeds the other branch"))
        if (key := (c.stage, lo, hi)) not in middles:
            middles[key] = fc.middle_defect(c.stage, lo, hi, den)
        if middles[key]:
            failures.append((k, pattern, middles[key]))
    return VerificationResult(not failures, failures)
