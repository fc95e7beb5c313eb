"""Sampling-based epsilon-approximations with exact verification, and the
hitting-set / covering pattern for translate families in a cyclic group.

One kernel, `FiniteTranslateFamily.translate_counts`, gives the number of
sample points in every translate g + X as exact integers; the sup-deviation,
the sample-complexity sweep and the covering check all read it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, groupby, islice, repeat
from operator import add, sub
from typing import Iterable, Optional, Sequence

from .errors import HittingSetError, UnsampleableError
from .groups import CyclicGroup


@dataclass
class FiniteTranslateFamily:
    """The family of all translates of a base subset of a cyclic group."""

    model: CyclicGroup
    base: tuple

    def __post_init__(self):
        n = self.model.n
        self.base = tuple(sorted({v % n for v in self.base}))
        self._arcs = _circular_arcs(self.base, n)

    def member_count(self) -> int:
        return self.model.n

    def translate_counts(self, sample: Sequence) -> list[int]:
        """For each g in range(n), the number of sample points in g + X,
        repeats counted and every int read as its residue."""
        n = self.model.n
        hist = [0] * n
        for p in sample:
            hist[p % n] += 1
        # From translate g to g + 1 an arc gains the point after its end and
        # loses its first one: its steps are one difference of two histogram
        # rotations, and the n counts are running sums of the first n - 1 steps.
        steps = None
        for start, length in self._arcs:
            end = (start + length) % n
            arc = map(sub, hist[end:] + hist[:end], hist[start:] + hist[:start])
            steps = arc if steps is None else list(map(add, steps, arc))
        first = sum(map(hist.__getitem__, self.base))
        return list(accumulate(islice(repeat(0, n) if steps is None else steps, n - 1), initial=first))

    def sup_deviation_units(self, sample: Sequence) -> int:
        """The exact `sup_deviation` times n·len(sample), an integer."""
        n = self.model.n
        counts = self.translate_counts(sample)
        expected = len(self.base) * len(sample)
        return max(max(counts) * n - expected, expected - min(counts) * n)

    def sup_deviation(self, sample: Sequence) -> Fraction:
        """Exact sup over every translate of |Av(sample) - measure|."""
        return Fraction(self.sup_deviation_units(sample), self.model.n * len(sample))


def _circular_arcs(vals: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Decompose a sorted residue set into maximal circular arcs (start,
    length): runs of values v at places i with v - i fixed, the wrap merged."""
    runs = [[v for _, v in run] for _, run in groupby(enumerate(vals), lambda iv: iv[1] - iv[0])]
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == n - 1:
        runs[-1] += runs.pop(0)
    return [(run[0], len(run)) for run in runs]


@dataclass
class SweepRow:
    n_samples: int
    trials: int
    successes: int
    min_deviation: Fraction
    max_deviation: Fraction


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
    """Empirical success rates over a schedule of sample sizes, a trial of N
    i.i.d. uniform points passing iff its exact sup-deviation is below epsilon;
    reports the first N in the schedule whose success rate reaches 95%, which
    is also where the running maximum of the rates first does."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if any(n_samples < 1 for n_samples in schedule):
        raise ValueError("need at least one sample")
    result = SweepResult()
    if trials <= 0:
        return result
    for n_samples in schedule:
        scale = family.model.n * n_samples  # a trial's sup-deviation is its units over scale
        units = [family.sup_deviation_units(model.sample(random.Random(f"{seed}/eps/{n_samples}/{t}"), n_samples))
                 for t in range(trials)]
        successes = sum(u * epsilon.denominator < epsilon.numerator * scale for u in units)
        result.rows.append(SweepRow(n_samples, trials, successes,
                                    Fraction(min(units), scale), Fraction(max(units), scale)))
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
    n = model.n
    base_vals = sorted({v % n for v in base})
    translators = [g % n for g in translators]
    if not base_vals:
        raise UnsampleableError("base subset is empty")
    if Fraction(len(base_vals), n) < epsilon:
        raise ValueError("translate measure is below the requested epsilon floor")
    if n_points is None:
        n_points = max(1, math.ceil(math.log(max(len(translators), 2)) / float(epsilon)))
    last_missed = None
    for _ in range(retries):
        points = model.sample(rng, n_points)
        ok, missed = covering_check(base_vals, points, translators, model)
        if ok:
            return points
        last_missed = missed
    raise HittingSetError(
        f"no hitting set of size {n_points} in {retries} retries", missed=last_missed
    )


def covering_check(base: Iterable, points: Sequence, translators: Iterable, model: CyclicGroup):
    """Exactly verify that every translate g+X contains one of the points; returns
    (ok, first failing translator or None).  It counts all n translates, O(n)
    per circular arc of the base, however few the translators."""
    n = model.n
    counts = FiniteTranslateFamily(model, base).translate_counts(points)
    return next(((False, g) for g in translators if counts[g % n] == 0), (True, None))
