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

from .cantor import FatCantorSet
from .constructible import Interval
from .errors import BudgetExceededError
from .rational import format_rational, parse_rational


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

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "pattern": self.pattern,
            "value": format_rational(self.value),
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "stage": self.stage,
            "slack": format_rational(self.slack),
        }

    @classmethod
    def from_json(cls, d: dict) -> "WitnessCondition":
        return cls(
            level=int(d["level"]),
            pattern=str(d["pattern"]),
            value=parse_rational(d["value"]),
            lo=parse_rational(d["lo"]),
            hi=parse_rational(d["hi"]),
            stage=int(d["stage"]),
            slack=parse_rational(d["slack"]),
        )


@dataclass
class ShatterWitness:
    """A depth-n shattering certificate with exact rational data."""

    depth: int
    translators: tuple[Fraction, ...]
    points: dict[str, Fraction]
    stage_bound: int
    conditions: tuple[WitnessCondition, ...] = ()

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "stage_bound": self.stage_bound,
            "translators": [format_rational(g) for g in self.translators],
            "points": {p: format_rational(x) for p, x in sorted(self.points.items())},
            "conditions": [
                c.to_json() for c in sorted(self.conditions, key=lambda c: (c.level, c.pattern))
            ],
        }

    @classmethod
    def from_json(cls, d: dict) -> "ShatterWitness":
        return cls(
            depth=int(d["depth"]),
            translators=tuple(parse_rational(g) for g in d["translators"]),
            points={p: parse_rational(x) for p, x in d["points"].items()},
            stage_bound=int(d["stage_bound"]),
            conditions=tuple(WitnessCondition.from_json(c) for c in d["conditions"]),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def loads(cls, text: str) -> "ShatterWitness":
        return cls.from_json(json.loads(text))


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


def _slack(value: Fraction, gap: Interval) -> Fraction:
    return min(value - gap.lo, gap.hi - value)


def _conditions(translators, points, gaps):
    """(level, pattern, value, gap, stage) in (level, pattern) order: condition
    (k, p) is that g_k + x_p lies in the gap chosen for the prefix p[:k+1]."""
    patterns = sorted(points)
    for k, g in enumerate(translators):
        for pattern in patterns:
            gap, stage = gaps[pattern[: k + 1]]
            yield k, pattern, g + points[pattern], gap, stage


def construct_witness(
    fc: FatCantorSet,
    depth: int,
    seed: int = 0,
    stage_budget: int = 2000,
) -> ShatterWitness:
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
    gaps: dict[str, tuple[Interval, int]] = {}
    translators: list[Fraction] = []
    m = 0

    def partial() -> ShatterWitness:
        # Every call comes before the current level's translator is appended,
        # so this is the certificate of the completed levels.
        return _assemble(translators, points, gaps)

    for level in range(depth):
        patterns = sorted(points)
        # Deepen until components fit inside every slack ball and are
        # pairwise distinct.
        min_sigma = min(
            (_slack(v, gap) for _, _, v, gap, _ in _conditions(translators, points, gaps)),
            default=None,
        )
        while True:
            if m > stage_budget:
                raise BudgetExceededError(
                    f"stage budget exhausted while separating level {level}",
                    partial=partial(),
                )
            lam = fc.component_length(m)
            if min_sigma is not None and lam >= min_sigma:
                m += 1
                continue
            comps = {pat: fc.component_of(points[pat], m) for pat in patterns}
            if any(c is None for c in comps.values()):
                raise BudgetExceededError(
                    "a point left the core approximation", partial=partial()
                )
            if len({(c.lo, c.hi) for c in comps.values()}) < len(patterns):
                m += 1
                continue
            break
        # Admissible shift radius from the per-component quantitative bound.
        radius = (2 * fc.component_limit_measure(m) - lam) / 2

        # One shared translator for the level, small enough to push any gap
        # edge of the pools strictly inside its gap, and well inside the
        # admissible difference-set radius.  Each pool holds the removed
        # middles of the next two stages, so it offers gaps of both branches.
        pools = {pat: fc.child_gaps(comps[pat].lo, comps[pat].hi, m, 2) for pat in patterns}
        min_gap = min(iv.length for pool in pools.values() for _, _, iv in pool)
        ratio = Fraction(rng.randrange(96, 161), 256)  # in [3/8, 5/8]
        sign = rng.choice((1, -1))
        g_level = sign * min(min_gap, radius) * ratio

        new_points: dict[str, Fraction] = {}
        used_gaps: set[tuple[Fraction, Fraction]] = set()
        used_points: set[Fraction] = set()
        for pattern in _bitstrings(level + 1):
            parent, bit = pattern[:-1], int(pattern[-1])
            choices = [
                (stage, iv)
                for branch, stage, iv in pools[parent]
                if branch == bit and (iv.lo, iv.hi) not in used_gaps
            ]
            if not choices:
                raise BudgetExceededError(
                    f"no unused branch-{bit} gap for pattern {pattern}",
                    partial=partial(),
                )
            shallowest = min(stage for stage, _ in choices)
            stage, iv = rng.choice([c for c in choices if c[0] == shallowest])
            x = iv.lo if g_level > 0 else iv.hi
            value = x + g_level
            if not (iv.lo < value < iv.hi) or x in used_points:
                raise BudgetExceededError(
                    f"edge placement failed for pattern {pattern}", partial=partial()
                )
            used_gaps.add((iv.lo, iv.hi))
            used_points.add(x)
            new_points[pattern] = x
            gaps[pattern] = (iv, stage)

        # The earlier levels' conditions (k < level), now at the new points.
        for _, _, value, gap, _ in _conditions(translators, new_points, gaps):
            if not (gap.lo < value < gap.hi):
                raise BudgetExceededError(
                    "inherited condition broke; budgets too tight",
                    partial=partial(),
                )
        translators.append(g_level)
        points = new_points

    return _assemble(translators, points, gaps)


def _assemble(translators, points, gaps) -> ShatterWitness:
    conditions = tuple(
        WitnessCondition(k, pattern, v, gap.lo, gap.hi, stage, _slack(v, gap))
        for k, pattern, v, gap, stage in _conditions(translators, points, gaps)
    )
    stage_bound = max((c.stage for c in conditions), default=0)
    return ShatterWitness(len(translators), tuple(translators), points, stage_bound, conditions)


# --------------------------------------------------------------------------
# verification


def verify_witness(witness: ShatterWitness, fc: FatCantorSet) -> VerificationResult:
    """Re-check every membership by exact arithmetic against the set's own
    removal schedule; never consults the construction's recorded intervals."""
    failures = []
    expected = set(_bitstrings(witness.depth)) if witness.depth else set()
    if set(witness.points) != expected:
        failures.append(("structure", "", "point patterns do not match the depth"))
    if len(set(witness.points.values())) != len(witness.points):
        failures.append(("structure", "", "points are not pairwise distinct"))
    if len(witness.translators) != witness.depth:
        failures.append(("structure", "", "translator count does not match the depth"))
    if failures:
        return VerificationResult(False, failures)
    for pattern in sorted(witness.points):
        x = witness.points[pattern]
        for k in range(witness.depth):
            bit = int(pattern[k])
            y = witness.translators[k] + x
            iv = fc.branch_gap_containing(y, bit, witness.stage_bound)
            if iv is None:
                failures.append((k, pattern, f"{y} is not in branch {bit}"))
                continue
            if not (iv.lo < y < iv.hi):
                failures.append((k, pattern, f"{y} touches the boundary of {iv}"))
    return VerificationResult(not failures, failures)
