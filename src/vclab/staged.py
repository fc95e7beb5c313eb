"""Stagewise-refinable sets: a generator stage m -> ConstructibleSet with a
declared monotonicity, sound finite-budget membership answers, and optional
local queries used by the witness engine (component lookup near a point
without materializing deep stages)."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .constructible import ConstructibleSet, Interval

IN, OUT, UNDECIDED = "in", "out", "undecided"


class StagedSet:
    """A set presented as a monotone sequence of constructible stages.

    monotone="decreasing": stage(m) ⊇ stage(m+1) ⊇ ... ⊇ limit
    monotone="increasing": stage(m) ⊆ stage(m+1) ⊆ ... ⊆ limit

    decide(x, budget), when supplied, may certify membership in the limit
    using structural knowledge (e.g. persistent endpoints); it must be sound:
    an "in"/"out" answer may never contradict any later stage.

    Stage memoization is a plain dict; share instances across threads only
    with external coordination.
    """

    def __init__(
        self,
        generate: Callable[[int], ConstructibleSet],
        monotone: str,
        stage_measure: Optional[Callable[[int], Fraction]] = None,
        decide: Optional[Callable[[Fraction, int], Optional[str]]] = None,
        component_near: Optional[Callable[[Fraction, int], Optional[Interval]]] = None,
        name: str = "",
    ):
        if monotone not in ("increasing", "decreasing"):
            raise ValueError("monotone must be 'increasing' or 'decreasing'")
        self._generate = generate
        self.monotone = monotone
        self._stage_measure = stage_measure
        self._decide = decide
        self._component_near = component_near
        self.name = name
        self._cache: dict[int, ConstructibleSet] = {}

    def stage(self, m: int) -> ConstructibleSet:
        if m < 0:
            raise ValueError("stage must be >= 0")
        if m not in self._cache:
            s = self._generate(m)
            if self._stage_measure is not None and s.measure() != self._stage_measure(m):
                raise ValueError(
                    f"stage {m} measure {s.measure()} contradicts declared formula"
                )
            self._cache[m] = s
        return self._cache[m]

    def stage_measure(self, m: int) -> Fraction:
        if self._stage_measure is not None:
            return self._stage_measure(m)
        return self.stage(m).measure()

    def membership(self, x, budget: int) -> str:
        """Sound three-valued membership for the limit set."""
        x = Fraction(x)
        if self._decide is not None:
            verdict = self._decide(x, budget)
            if verdict is not None:
                return verdict
        inside = self.stage(budget).contains(x)
        if self.monotone == "decreasing":
            return UNDECIDED if inside else OUT
        return IN if inside else UNDECIDED

    def check_monotone(self, upto: int) -> None:
        """Verify the declared monotonicity on consecutive stages <= upto."""
        for m in range(upto):
            a, b = self.stage(m), self.stage(m + 1)
            small, big = (b, a) if self.monotone == "decreasing" else (a, b)
            if not small.is_subset(big):
                raise AssertionError(f"stages {m},{m + 1} violate {self.monotone} monotonicity")

    # Local queries used by the witness engine.  Defaults materialize the
    # stage, which is fine for shallow generators; deep generators (fat
    # Cantor parities) install O(stage) descent-based hooks instead.

    def component_containing(self, x, stage: int) -> Optional[Interval]:
        """Maximal interval of stage(stage) containing x, if any."""
        x = Fraction(x)
        if self._component_near is not None:
            return self._component_near(x, stage)
        for iv in self.stage(stage).intervals:
            if iv.contains(x):
                return iv
        return None
