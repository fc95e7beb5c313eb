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
For removed scale s in (0, 1) the bound always applies: at stage m,
f = (1 - s/2)/2^m and 2f - L = (1 - s/2 - s*2^-(m+1))/2^m > 0.
Per-level slacks therefore shrink by a bounded factor per level (the next
level's components must fit inside the current slack balls), which keeps
stage depth singly exponential in the witness depth.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .cantor import FatCantorSet, branch_of_stage
from .errors import BudgetExceededError
from .rational import parse_rational


@dataclass(frozen=True)
class WitnessCondition:
    """One exact membership fact: value = g_level + x_pattern lies strictly
    inside (lo, hi), an interval of branch pattern[level] at `stage`."""

    level: int
    pattern: str
    value: Fraction
    lo: Fraction
    hi: Fraction
    stage: int
    slack: Fraction


@dataclass
class ShatterWitness:
    """A depth-n shattering certificate with exact rational data."""

    depth: int
    translators: tuple[Fraction, ...]
    points: dict[str, Fraction]
    stage_bound: int
    conditions: tuple[WitnessCondition, ...] = ()

    def dumps(self) -> str:
        """The JSON text `json.dumps(..., sort_keys=True, indent=2)` gives, written
        directly: rationals as str(Fraction), conditions in (level, pattern) order."""
        conditions = ",\n".join(
            f'    {{\n      "hi": "{c.hi!s}",\n      "level": {c.level},\n      "lo": "{c.lo!s}",\n'
            f'      "pattern": {_quote(c.pattern)},\n      "slack": "{c.slack!s}",\n'
            f'      "stage": {c.stage},\n      "value": "{c.value!s}"\n    }}'
            for c in sorted(self.conditions, key=lambda c: (c.level, c.pattern))
        )
        points = ",\n".join(f'    {_quote(p)}: "{x!s}"' for p, x in sorted(self.points.items()))
        translators = ",\n".join(f'    "{g!s}"' for g in self.translators)
        return (
            f'{{\n  "conditions": {_nest("[]", conditions)},\n  "depth": {self.depth},\n'
            f'  "points": {_nest("{}", points)},\n  "stage_bound": {self.stage_bound},\n'
            f'  "translators": {_nest("[]", translators)}\n}}\n'
        )

    @classmethod
    def loads(cls, text: str) -> "ShatterWitness":
        d, num = json.loads(text), parse_rational
        conditions = tuple(
            WitnessCondition(int(c["level"]), str(c["pattern"]), num(c["value"]), num(c["lo"]),
                             num(c["hi"]), int(c["stage"]), num(c["slack"]))
            for c in d["conditions"]
        )
        return cls(int(d["depth"]), tuple(num(g) for g in d["translators"]),
                   {p: num(x) for p, x in d["points"].items()}, int(d["stage_bound"]), conditions)


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
    """For each shift u, the exact measure of K ∩ (K + u) for the stage set
    K, together with the certified floor 2*limit - window - |u| for the
    limit set.  K is built once for all shifts."""
    core = fc.stage_set(stage)
    lo, hi = fc.window
    base = 2 * fc.limit_measure() - (hi - lo)
    overlaps = []
    for shift in shifts:
        shift = Fraction(shift)
        exact = core.intersection(core.translate(shift)).measure()
        overlaps.append((exact, base - abs(shift)))
    return overlaps


# --------------------------------------------------------------------------
# construction


def _bitstrings(k: int) -> list[str]:
    return [format(i, f"0{k}b") for i in range(2**k)]


def _condition(level, pattern, value, lo, hi, stage):
    """The fields of a WitnessCondition; None unless value is strictly inside (lo, hi)."""
    below, above = value - lo, hi - value
    if below <= 0 or above <= 0:
        return None
    return (level, pattern, value, lo, hi, stage, min(below, above))


def _pool(fc: FatCantorSet, m: int, c: int) -> list[tuple]:
    """The removed middles of the next two stages inside the stage-m component
    with address c, as (stage, address of the component cut, lo, hi)."""
    pool = []
    for s, b in ((m + 1, c), (m + 2, 2 * c), (m + 2, 2 * c + 1)):
        lo, hi = fc.middle(s, b)
        pool.append((s, b, fc.value(s, lo), fc.value(s, hi)))
    return pool


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
        return ShatterWitness(0, (), {}, 0, ())

    rng = random.Random(f"witness/{seed}")
    points: dict[str, Fraction] = {"": fc.window[0]}
    # Each point as (stage s, address b, right end?): it is that end of the
    # stage-s component b, so its component at every stage is known.
    ends = {"": (0, 0, False)}
    gaps = {}  # pattern prefix -> (lo, hi, stage) of its removed middle
    # The conditions of the completed levels at `points`, as WitnessCondition
    # fields: each value and slack is computed once.
    conditions: list[tuple] = []
    translators: list[Fraction] = []
    m = 0

    def partial() -> ShatterWitness:
        # Every call comes before the current level's translator is appended,
        # so this is the certificate of the completed levels.
        return _assemble(translators, points, conditions)

    for level in range(depth):
        patterns = sorted(points)
        # Deepen until components fit inside every slack ball and are
        # pairwise distinct.
        sigma = min((c[-1] for c in conditions), default=None)
        while True:
            if m > stage_budget:
                raise BudgetExceededError(f"stage budget exhausted while separating level {level}",
                                          partial=partial())
            if sigma is None or fc.component_length(m) < sigma:
                comps = {pat: fc.address(*ends[pat], m) for pat in patterns}
                if len(set(comps.values())) == len(patterns):
                    break
            m += 1
        # Admissible shift radius from the per-component quantitative bound.
        radius = (2 * fc.component_limit_measure(m) - fc.component_length(m)) / 2

        # One shared translator for the level, small enough to push any gap
        # edge of the pools strictly inside its gap, and well inside the
        # admissible difference-set radius.  Each pool holds the removed
        # middles of the next two stages, so it offers gaps of both branches.
        pools = {pat: _pool(fc, m, comps[pat]) for pat in patterns}
        min_gap = min(hi - lo for pool in pools.values() for _, _, lo, hi in pool)
        ratio = Fraction(rng.randrange(96, 161), 256)  # in [3/8, 5/8]
        sign = rng.choice((1, -1))
        g_level = sign * min(min_gap, radius) * ratio

        # The two patterns sharing a parent take gaps of different branches
        # from its pool, and distinct parents have disjoint pools, so no gap
        # and no gap edge is taken twice.  The pool's two stages feed
        # different branches, so each pattern chooses within one stage.
        new_points: dict[str, Fraction] = {}
        placed = []
        for pattern in _bitstrings(level + 1):
            parent, bit = pattern[:-1], int(pattern[-1])
            stage, b, lo, hi = rng.choice([g for g in pools[parent] if branch_of_stage(g[0]) == bit])
            # The lower edge is the right end of component 2b, the upper edge
            # the left end of component 2b + 1.
            if g_level > 0:
                new_points[pattern], ends[pattern] = lo, (stage, 2 * b, True)
            else:
                new_points[pattern], ends[pattern] = hi, (stage, 2 * b + 1, False)
            condition = _condition(level, pattern, new_points[pattern] + g_level, lo, hi, stage)
            if condition is None:
                raise BudgetExceededError(f"edge placement failed for pattern {pattern}",
                                          partial=partial())
            gaps[pattern] = (lo, hi, stage)
            placed.append(condition)

        # The earlier levels' conditions (k < level), now at the new points.
        inherited = []
        for k, g in enumerate(translators):
            for pattern, x in new_points.items():
                condition = _condition(k, pattern, g + x, *gaps[pattern[: k + 1]])
                if condition is None:
                    raise BudgetExceededError("inherited condition broke; budgets too tight",
                                              partial=partial())
                inherited.append(condition)
        translators.append(g_level)
        points = new_points
        conditions = inherited + placed

    return _assemble(translators, points, conditions)


def _assemble(translators, points, conditions) -> ShatterWitness:
    conditions = tuple(WitnessCondition(*c) for c in conditions)
    stage_bound = max((c.stage for c in conditions), default=0)
    return ShatterWitness(len(translators), tuple(translators), points, stage_bound, conditions)


# --------------------------------------------------------------------------
# verification


def verify_witness(witness: ShatterWitness, fc: FatCantorSet) -> VerificationResult:
    """Check every recorded field of a certificate in closed form, with no
    membership walk.  Per condition (k, p): value = g_k + x_p, lo < value < hi,
    slack = min(value - lo, hi - value), (lo, hi) a removed middle of the
    recorded stage (`FatCantorSet.middle_defect`, once per distinct middle)
    and that stage feeding branch p[k].  Exactly one condition per (level,
    pattern), and stage_bound the largest stage.  Failures are (level,
    pattern, message)."""
    failures = []
    depth, points, translators = witness.depth, witness.points, witness.translators
    if set(points) != (set(_bitstrings(depth)) if depth else set()):
        failures.append(("structure", "", "point patterns do not match the depth"))
    if len(set(points.values())) != len(points):
        failures.append(("structure", "", "points are not pairwise distinct"))
    if len(translators) != depth:
        failures.append(("structure", "", "translator count does not match the depth"))
    if sorted((c.level, c.pattern) for c in witness.conditions) != [
            (k, pattern) for k in range(depth) for pattern in sorted(points)]:
        failures.append(("structure", "", "not exactly one condition per level and pattern"))
    top = max((c.stage for c in witness.conditions), default=0)
    if witness.stage_bound != top:
        failures.append(("structure", "", f"stage bound {witness.stage_bound} is not the top stage {top}"))
    if failures:
        return VerificationResult(False, failures)
    middles = {}  # keyed on integers, so no Fraction is hashed
    for c in witness.conditions:
        k, pattern = c.level, c.pattern
        if c.value != translators[k] + points[pattern]:
            failures.append((k, pattern, f"value {c.value} is not g_{k} + x_{pattern}"))
        below, above = c.value - c.lo, c.hi - c.value
        if below <= 0 or above <= 0:
            failures.append((k, pattern, f"{c.value} is not strictly inside ({c.lo}, {c.hi})"))
        elif c.slack != min(below, above):
            failures.append((k, pattern, f"slack {c.slack} is not {min(below, above)}"))
        if branch_of_stage(c.stage) != int(pattern[k]):
            failures.append((k, pattern, f"stage {c.stage} feeds the other branch"))
        key = (c.stage, c.lo.numerator, c.lo.denominator, c.hi.numerator, c.hi.denominator)
        if key not in middles:
            middles[key] = fc.middle_defect(c.stage, c.lo, c.hi)
        if middles[key]:
            failures.append((k, pattern, middles[key]))
    return VerificationResult(not failures, failures)

