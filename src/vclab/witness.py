"""Construction and independent verification of depth-n shattering
certificates for a pair of disjoint open staged sets whose closures share a
positive-measure core.

A depth-n certificate consists of translators g_0..g_{n-1} and points x_p,
one per bit pattern p of length n, such that g_k + x_p lands strictly inside
branch bit p[k] for every k and p.  All 2^n * n memberships are exact
rational facts against concrete generator intervals, so a certificate can be
re-checked without trusting anything the construction did.

The construction proceeds level by level.  Points always stay on persistent
core points (component endpoints): a new point for pattern p is the edge of
a removed interval of branch p[level] lying inside its parent's component,
and the whole level shares one translator small enough to push every edge
strictly into its adjacent interval.  The admissible translator range comes
from a quantitative difference-set bound: if the core keeps measure f inside
every length-L component and 2f > L, then for every |u| <= (2f - L)/2 the
core meets its own u-translate inside that component in positive measure.
Per-level slacks therefore shrink by a bounded factor per level (the next
level's components must fit inside the current slack balls), which keeps
stage depth singly exponential in the witness depth.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .constructible import ConstructibleSet, Interval
from .errors import (
    BudgetExceededError,
    InsufficientStageError,
    QuantitativeRegimeError,
    StageBudgetError,
)
from .rational import format_rational, parse_rational
from .staged import StagedSet


@dataclass
class BoundaryPair:
    """Two disjoint open staged sets together with density data about the
    shared frontier of their closures.

    core is a decreasing staged over-approximation of cl(v0) ∩ cl(v1);
    measure_floor is a certified lower bound on the limit core's measure.
    component_floor(m) / component_length(m) describe how that measure is
    spread over stage-m components, and child_gaps(lo, hi, from_stage, depth)
    lists the removed intervals of both branches strictly inside a stage
    component, as (branch, stage, interval) triples.  The last three are what
    the witness engine needs at depth >= 2; pairs without them still support
    depth-1 certificates.
    """

    v0: StagedSet
    v1: StagedSet
    window: tuple[Fraction, Fraction]
    core: Optional[StagedSet] = None
    measure_floor: Fraction = Fraction(0)
    component_floor: Optional[Callable[[int], Fraction]] = None
    component_length: Optional[Callable[[int], Fraction]] = None
    child_gaps: Optional[Callable[[Fraction, Fraction, int, int], list]] = None

    def branch(self, bit: int) -> StagedSet:
        return self.v1 if bit else self.v0

    @property
    def window_length(self) -> Fraction:
        return self.window[1] - self.window[0]

    def engine_ready(self) -> bool:
        return all(
            x is not None
            for x in (self.core, self.component_floor, self.component_length, self.child_gaps)
        )

    def validate_stages(self, upto: int) -> None:
        """Exact sanity checks on materialized stages <= upto."""
        for m in range(upto + 1):
            s0, s1 = self.v0.stage(m), self.v1.stage(m)
            for s in (s0, s1):
                if s.points:
                    raise AssertionError(f"branch stage {m} carries isolated points")
                for iv in s.intervals:
                    if iv.lo_closed or iv.hi_closed:
                        raise AssertionError(f"branch stage {m} is not open: {iv}")
            if not s0.intersection(s1).is_empty:
                raise AssertionError(f"branches intersect at stage {m}")
            if self.core is not None and self.core.stage(m).measure() < self.measure_floor:
                raise AssertionError(f"core stage {m} dips below the measure floor")


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

    def __bool__(self):
        return self.ok


# --------------------------------------------------------------------------
# density / difference-set bookkeeping


def density_core_stage(pair: BoundaryPair, stage: int) -> tuple[ConstructibleSet, Fraction]:
    """Stage-m over-approximation of the density core, plus the certified
    per-component measure floor at that stage."""
    if pair.core is None or pair.component_floor is None:
        raise InsufficientStageError("pair declares no density core data")
    if pair.measure_floor <= 0:
        raise InsufficientStageError("measure floor is zero; nothing to certify")
    floor = pair.component_floor(stage)
    if floor <= 0:
        raise InsufficientStageError(f"component floor at stage {stage} is not positive")
    return pair.core.stage(stage), floor


def steinhaus_neighborhood(pair: BoundaryPair, stage: int) -> tuple[Fraction, Fraction]:
    """Quantitative difference-set neighborhood: returns (r, d) such that for
    every |u| <= r the core meets its own u-translate in measure >= d.

    Requires the quantitative regime 2*floor > window length; outside it no
    finite stage can certify the neighborhood.
    """
    w = pair.window_length
    f = pair.measure_floor
    if 2 * f <= w:
        raise QuantitativeRegimeError(
            f"measure floor {f} is at most half the window length {w}"
        )
    if pair.core is not None and pair.core.stage_measure(stage) < f:
        raise InsufficientStageError(f"core stage {stage} is below the declared floor")
    r = (2 * f - w) / 2
    return r, r


def core_overlap(pair: BoundaryPair, stage: int, shift) -> tuple[Fraction, Fraction]:
    """Exact measure of core-stage ∩ (core-stage + shift) together with the
    certified floor 2*measure_floor - window - |shift| for the limit core."""
    shift = Fraction(shift)
    if pair.core is None:
        raise InsufficientStageError("pair declares no core")
    s = pair.core.stage(stage)
    exact = s.intersection(s.translate(shift)).measure()
    floor = 2 * pair.measure_floor - pair.window_length - abs(shift)
    return exact, floor


def _component_radius(pair: BoundaryPair, m: int) -> Fraction:
    """Admissible shift radius from the per-component quantitative bound."""
    f = pair.component_floor(m)
    lam = pair.component_length(m)
    rho = 2 * f - lam
    if rho <= 0:
        raise QuantitativeRegimeError(
            f"component floor at stage {m} is at most half the component length"
        )
    return rho / 2


# --------------------------------------------------------------------------
# construction


def _bitstrings(k: int) -> list[str]:
    return [format(i, f"0{k}b") for i in range(2**k)]


def _cond_slack(value: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    return min(value - lo, hi - value)


def construct_witness(
    pair: BoundaryPair,
    depth: int,
    seed: int = 0,
    stage_budget: int = 2000,
    pool_depth: int = 2,
) -> ShatterWitness:
    """Build a depth-n certificate level by level.

    At each level the engine deepens the core filtration until every current
    point's component fits strictly inside its slack ball (so old conditions
    survive any choice within the component), then draws one small translator
    and, per pattern, one removed-interval edge of the right branch inside
    the parent component.  Raises BudgetExceededError with the deepest
    completed level as partial witness when a budget runs out, and
    QuantitativeRegimeError when depth >= 2 is requested without certifiable
    density data.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if pool_depth < 2:
        raise ValueError("pool_depth below 2 cannot expose both branches")
    if depth == 0:
        return ShatterWitness(0, (), {}, 0, ())
    if not pair.engine_ready() or pair.measure_floor * 2 <= pair.window_length:
        if depth == 1:
            return _direct_depth_one(pair, stage_budget)
        if pair.measure_floor * 2 <= pair.window_length:
            raise QuantitativeRegimeError(
                "depth >= 2 needs a measure floor above half the window; "
                f"got {pair.measure_floor} on window length {pair.window_length}"
            )
        raise InsufficientStageError("pair lacks local generator hooks for depth >= 2")

    rng = random.Random(f"witness/{seed}")
    wlo, whi = pair.window
    points: dict[str, Fraction] = {"": wlo}
    conds: dict[tuple[int, str], tuple[Fraction, Interval, int]] = {}
    translators: list[Fraction] = []
    m = 0

    def partial(level: int) -> ShatterWitness:
        return _assemble(level, translators[:level], points, conds)

    for level in range(depth):
        patterns = sorted(points)
        slack_by_pattern = {}
        for pat in patterns:
            slacks = [
                _cond_slack(v, iv.lo, iv.hi)
                for (k, p), (v, iv, _) in conds.items()
                if p == pat
            ]
            slack_by_pattern[pat] = min(slacks) if slacks else None

        # Deepen until components fit inside every slack ball, are pairwise
        # distinct, and keep the quantitative regime.
        min_sigma = min((s for s in slack_by_pattern.values() if s is not None), default=None)
        while True:
            if m > stage_budget:
                raise BudgetExceededError(
                    f"stage budget exhausted while separating level {level}",
                    partial=partial(level),
                )
            lam = pair.component_length(m)
            if min_sigma is not None and lam >= min_sigma:
                m += 1
                continue
            comps = {pat: pair.core.component_containing(points[pat], m) for pat in patterns}
            if any(c is None for c in comps.values()):
                raise BudgetExceededError(
                    "a point left the core approximation", partial=partial(level)
                )
            if len({(c.lo, c.hi) for c in comps.values()}) < len(patterns):
                m += 1
                continue
            try:
                radius = _component_radius(pair, m)
            except QuantitativeRegimeError:
                m += 1
                continue
            break

        # One shared translator for the level, small enough to push any gap
        # edge of the pools strictly inside its gap, and well inside the
        # admissible difference-set radius.
        pools = {pat: pair.child_gaps(comps[pat].lo, comps[pat].hi, m, pool_depth) for pat in patterns}
        if any(not pool for pool in pools.values()):
            raise BudgetExceededError("a component exposes no child gaps", partial=partial(level))
        min_gap = min(iv.length for pool in pools.values() for _, _, iv in pool)
        ratio = Fraction(rng.randrange(96, 161), 256)  # in [3/8, 5/8]
        sign = rng.choice((1, -1))
        g_level = sign * min(min_gap, radius) * ratio

        placed: list[dict] = []
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
                    partial=partial(level),
                )
            shallowest = min(stage for stage, _ in choices)
            stage, iv = rng.choice([c for c in choices if c[0] == shallowest])
            x = iv.lo if g_level > 0 else iv.hi
            value = x + g_level
            if not (iv.lo < value < iv.hi) or x in used_points:
                raise BudgetExceededError(
                    f"edge placement failed for pattern {pattern}", partial=partial(level)
                )
            used_gaps.add((iv.lo, iv.hi))
            used_points.add(x)
            placed.append({"pattern": pattern, "x": x, "iv": iv, "stage": stage})

        translators.append(g_level)
        new_points = {}
        new_conds = {}
        for p in placed:
            pat, x = p["pattern"], p["x"]
            new_points[pat] = x
            new_conds[(level, pat)] = (x + g_level, p["iv"], p["stage"])
            parent = pat[:-1]
            for k in range(level):
                _, piv, pstage = conds[(k, parent)]
                pval = translators[k] + x
                if not (piv.lo < pval < piv.hi):
                    raise BudgetExceededError(
                        "inherited condition broke; budgets too tight",
                        partial=partial(level),
                    )
                new_conds[(k, pat)] = (pval, piv, pstage)
        points = new_points
        conds = new_conds

    return _assemble(depth, translators, points, conds)


def _assemble(depth, translators, points, conds) -> ShatterWitness:
    conditions = tuple(
        WitnessCondition(
            level=k,
            pattern=pat,
            value=v,
            lo=iv.lo,
            hi=iv.hi,
            stage=stage,
            slack=_cond_slack(v, iv.lo, iv.hi),
        )
        for (k, pat), (v, iv, stage) in sorted(conds.items())
    )
    stage_bound = max((c.stage for c in conditions), default=0)
    pts = {p: x for p, x in points.items() if len(p) == depth}
    return ShatterWitness(depth, tuple(translators), pts, stage_bound, conditions)


def _direct_depth_one(pair: BoundaryPair, stage_budget: int) -> ShatterWitness:
    """Depth 1 needs no difference-set machinery: put one point inside each
    branch and use the zero translator."""
    points = {}
    conds = {}
    for bit in (0, 1):
        branch = pair.branch(bit)
        found = None
        for mm in range(stage_budget + 1):
            st = branch.stage(mm)
            if st.intervals:
                found = (st.intervals[0], mm)
                break
        if found is None:
            raise StageBudgetError(f"branch {bit} has no interval through {stage_budget}")
        iv, mm = found
        x = iv.midpoint
        points[str(bit)] = x
        conds[(0, str(bit))] = (x, iv, mm)
    return _assemble(1, [Fraction(0)], points, conds)


# --------------------------------------------------------------------------
# verification


def verify_witness(witness: ShatterWitness, pair: BoundaryPair) -> VerificationResult:
    """Re-check every membership by exact arithmetic against the pair's own
    generators; never consults the construction's recorded intervals."""
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
            iv = pair.branch(bit).component_containing(y, witness.stage_bound)
            if iv is None:
                failures.append((k, pattern, f"{y} is not in branch {bit}"))
                continue
            if not (iv.lo < y < iv.hi):
                failures.append((k, pattern, f"{y} touches the boundary of {iv}"))
    return VerificationResult(not failures, failures)
