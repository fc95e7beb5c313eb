"""Sampling-based epsilon-approximations with exact verification, and the
hitting-set / covering pattern for translate families in a cyclic group.

The sup-deviation over all translates is computed exactly in integer
arithmetic: the base set is decomposed into circular arcs so every
translate's sample count comes from prefix sums, and the deviation
comparison |count*n - |X|*N| happens on integers before any Fraction is
formed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import HittingSetError, UnsampleableError
from .groups import CyclicGroup


@dataclass
class FiniteTranslateFamily:
    """The family of all translates of a base subset of a cyclic group."""

    model: CyclicGroup
    base: tuple

    def __post_init__(self):
        vals = sorted({self.model.normalize(v) for v in self.base})
        self.base = tuple(vals)
        self._arcs = _circular_arcs(vals, self.model.n)

    def member_measure(self) -> Fraction:
        return self.model.haar_measure(self.base)

    def member_count(self) -> int:
        return self.model.n

    def sup_deviation(self, sample: Sequence) -> Fraction:
        """Exact sup over every translate of |Av(sample) - measure|."""
        n = self.model.n
        n_samp = len(sample)
        hist = [0] * n
        for p in sample:
            hist[self.model.normalize(p)] += 1
        # Prefix sums over two periods so any arc read is a single difference.
        prefix = [0] * (2 * n + 1)
        for i in range(2 * n):
            prefix[i + 1] = prefix[i] + hist[i % n]
        base_size = len(self.base)
        best_num = 0
        for g in range(n):
            count = 0
            for start, length in self._arcs:
                s = (g + start) % n
                count += prefix[s + length] - prefix[s]
            best_num = max(best_num, abs(count * n - base_size * n_samp))
        return Fraction(best_num, n * n_samp)


def _circular_arcs(vals: list[int], n: int) -> list[tuple[int, int]]:
    """Decompose a sorted residue set into maximal circular arcs
    (start, length); the wrap-around arc is merged."""
    if not vals:
        return []
    if len(vals) == n:
        return [(0, n)]
    arcs = []
    start = prev = vals[0]
    for v in vals[1:]:
        if v == prev + 1:
            prev = v
        else:
            arcs.append((start, prev - start + 1))
            start = prev = v
    arcs.append((start, prev - start + 1))
    if len(arcs) > 1 and arcs[0][0] == 0 and arcs[-1][0] + arcs[-1][1] == n:
        first = arcs.pop(0)
        last = arcs.pop()
        arcs.append((last[0], last[1] + first[1]))
    return arcs


@dataclass
class ApproxResult:
    points: list
    sup_deviation: Fraction
    success: bool


def epsilon_approximation(
    model: CyclicGroup, family, epsilon, n_samples: int, rng: random.Random
) -> ApproxResult:
    """Draw n i.i.d. uniform points and measure the exact sup-deviation over
    the family; success iff it is strictly below epsilon."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    points = [model.sample_uniform(rng) for _ in range(n_samples)]
    dev = family.sup_deviation(points)
    return ApproxResult(points, dev, dev < epsilon)


@dataclass
class SweepRow:
    n_samples: int
    trials: int
    successes: int
    min_deviation: Fraction
    max_deviation: Fraction

    def to_csv(self) -> dict:
        return {
            "N": self.n_samples,
            "trials": self.trials,
            "successes": self.successes,
            "min_sup_deviation": str(self.min_deviation),
            "max_sup_deviation": str(self.max_deviation),
        }


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)
    smallest_passing: Optional[int] = None


def sample_complexity_sweep(
    model: CyclicGroup,
    family,
    epsilon,
    schedule: Sequence[int],
    trials: int,
    seed: int = 0,
) -> SweepResult:
    """Empirical success rates over a schedule of sample sizes; reports the
    first N in the schedule whose success rate reaches 95%, which is also
    where the running maximum of the rates first does."""
    result = SweepResult()
    if trials <= 0:
        return result
    epsilon = Fraction(epsilon)
    for n_samples in schedule:
        successes = 0
        devs = []
        for t in range(trials):
            rng = random.Random(f"{seed}/eps/{n_samples}/{t}")
            res = epsilon_approximation(model, family, epsilon, n_samples, rng)
            devs.append(res.sup_deviation)
            if res.success:
                successes += 1
        result.rows.append(SweepRow(n_samples, trials, successes, min(devs), max(devs)))
    result.smallest_passing = next(
        (row.n_samples for row in result.rows if 20 * row.successes >= 19 * row.trials), None)
    return result


def hitting_set_for_translates(
    base: Iterable,
    translators: Iterable,
    model: CyclicGroup,
    epsilon,
    rng: random.Random,
    retries: int = 20,
    n_points: Optional[int] = None,
) -> list:
    """Sampled points meeting every translate g+X for g among the
    translators, verified exactly; fresh seeds on retry.

    The point count defaults to ceil(ln|U| / epsilon), enough for a
    measure-epsilon family to be hit with decent probability per attempt.
    """
    epsilon = Fraction(epsilon)
    base_vals = sorted({model.normalize(v) for v in base})
    translators = [model.normalize(g) for g in translators]
    if not base_vals:
        raise UnsampleableError("base subset is empty")
    if model.haar_measure(base_vals) < epsilon:
        raise ValueError("translate measure is below the requested epsilon floor")
    if n_points is None:
        n_points = max(1, math.ceil(math.log(max(len(translators), 2)) / float(epsilon)))
    last_missed = None
    for _ in range(retries):
        points = [model.sample_uniform(rng) for _ in range(n_points)]
        ok, missed = covering_check(base_vals, points, translators, model)
        if ok:
            return points
        last_missed = missed
    raise HittingSetError(
        f"no hitting set of size {n_points} in {retries} retries", missed=last_missed
    )


def covering_check(base: Iterable, points: Sequence, translators: Iterable, model: CyclicGroup):
    """Exactly verify that every translate g+X contains one of the points
    (equivalently, the translators are covered by the point-shifted reflected
    base sets).  Returns (ok, first failing translator or None)."""
    base_set = {model.normalize(v) for v in base}
    vals = [model.normalize(p) for p in points]
    for g in translators:
        ginv = model.invert(g)
        if not any(model.compose(ginv, p) in base_set for p in vals):
            return False, g
    return True, None
