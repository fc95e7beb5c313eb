"""Ambient groups with Haar measure and seeded uniform samplers.

Three desk-scale models: finite cyclic groups, finite products of cyclic
groups (both with normalized counting measure) and the additive rationals
viewed inside an explicit window (with exact Lebesgue measure).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .constructible import ConstructibleSet
from .rational import format_rational, parse_rational

_SCALE = 1 << 53  # RealLine draws are multiples of 1/_SCALE inside the window


class GroupModel:
    """Shared behaviour of the models.  Elements are raw values: ints for
    cyclic groups, coordinate tuples for products, Fractions on the line."""

    def compose(self, a, b):
        """Group operation on raw values."""
        return self._op(self.normalize(a), self.normalize(b))

    def invert(self, a):
        """Group inverse on raw values."""
        return self._inv(self.normalize(a))

    def normalize(self, value):
        """The canonical raw value of an element given in any accepted form."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def sample_uniform(self, rng: random.Random):
        """A uniform draw from the group (the window on the line), as a
        normalized raw value."""
        raise NotImplementedError


@dataclass(frozen=True)
class CyclicGroup(GroupModel):
    """Integers mod n under addition, normalized counting measure."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cyclic order must be >= 1")

    def normalize(self, value):
        return int(value) % self.n

    def _op(self, a, b):
        return (a + b) % self.n

    def _inv(self, a):
        return (-a) % self.n

    def identity(self):
        return 0

    def haar_measure(self, subset: Iterable[int]) -> Fraction:
        vals = {self.normalize(v) for v in subset}
        return Fraction(len(vals), self.n)

    def translate_subset(self, subset: Iterable[int], g) -> frozenset:
        g = self.normalize(g)
        return frozenset((self.normalize(v) + g) % self.n for v in subset)

    def elements(self) -> range:
        return range(self.n)

    def sample_uniform(self, rng: random.Random) -> int:
        return rng.randrange(self.n)

    def describe(self) -> dict:
        return {"kind": "cyclic", "n": self.n}


@dataclass(frozen=True)
class ProductGroup(GroupModel):
    """Direct product of cyclic groups, componentwise addition."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders or any(n < 1 for n in self.orders):
            raise ValueError("orders must be a nonempty tuple of positive ints")

    def normalize(self, value):
        try:
            value = tuple(int(v) for v in value)
        except TypeError:
            raise ValueError(
                f"elements of product group {'x'.join(map(str, self.orders))} "
                f"are coordinate tuples, not {value!r}"
            ) from None
        if len(value) != len(self.orders):
            raise ValueError(f"expected {len(self.orders)} coordinates")
        return tuple(v % n for v, n in zip(value, self.orders))

    def _op(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def _inv(self, a):
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def identity(self):
        return (0,) * len(self.orders)

    @property
    def size(self) -> int:
        total = 1
        for n in self.orders:
            total *= n
        return total

    def haar_measure(self, subset) -> Fraction:
        vals = {self.normalize(v) for v in subset}
        return Fraction(len(vals), self.size)

    def elements(self):
        def rec(prefix, rest):
            if not rest:
                yield tuple(prefix)
                return
            for v in range(rest[0]):
                yield from rec(prefix + [v], rest[1:])

        return rec([], list(self.orders))

    def sample_uniform(self, rng: random.Random) -> tuple:
        return tuple(rng.randrange(n) for n in self.orders)

    def describe(self) -> dict:
        return {"kind": "product", "orders": list(self.orders)}


@dataclass(frozen=True)
class RealLine(GroupModel):
    """Additive rationals with Lebesgue measure, experiments confined to a
    window [lo, hi].  Samples are dyadic rationals so everything downstream
    stays exact."""

    lo: Fraction = Fraction(0)
    hi: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo >= self.hi:
            raise ValueError("window needs lo < hi")

    def normalize(self, value):
        return Fraction(value)

    def _op(self, a, b):
        return a + b

    def _inv(self, a):
        return -a

    def identity(self):
        return Fraction(0)

    def elements(self):
        raise ValueError("the real line is not a finite group; use cyclic:N or product:AxB")

    def haar_measure(self, subset: ConstructibleSet) -> Fraction:
        return subset.measure()

    def sample_uniform(self, rng: random.Random) -> Fraction:
        """A dyadic rational k/2^53 of the way into the window, 0 < k < 2^53."""
        rng.randrange(_SCALE)  # a discarded draw, so that each seed keeps giving the same points
        return self.lo + (self.hi - self.lo) * Fraction(rng.randrange(1, _SCALE), _SCALE)

    def describe(self) -> dict:
        return {
            "kind": "reals",
            "window": [format_rational(self.lo), format_rational(self.hi)],
        }


def parse_model_spec(spec: str) -> GroupModel:
    """Parse CLI shorthand: "cyclic:12", "product:2x3", "reals:0,1"."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "cyclic":
            return CyclicGroup(int(rest))
        if kind == "product":
            return ProductGroup(tuple(int(p) for p in rest.split("x")))
        if kind == "reals":
            lo, hi = rest.split(",") if rest else ("0", "1")
            return RealLine(parse_rational(lo), parse_rational(hi))
    except ValueError:
        pass
    raise ValueError(
        f"group spec {spec!r} must be cyclic:N, product:AxB (any number of factors) "
        "or reals:LO,HI, with integers N, A, B >= 1 and rationals LO < HI"
    )
