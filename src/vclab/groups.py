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
from .errors import ModelMismatchError, UnsampleableError
from .rational import format_rational, parse_rational


@dataclass(frozen=True)
class GroupElement:
    """A value tagged with the model it lives in."""

    model: "GroupModel"
    value: object

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.model.multiply(self, other)

    def inverse(self) -> "GroupElement":
        return self.model.inverse(self)

    def __repr__(self):
        return f"<{self.value} in {self.model.describe()}>"


class GroupModel:
    """Shared behaviour: validation, element wrapping, axioms."""

    def element(self, value) -> GroupElement:
        return GroupElement(self, self.normalize(value))

    def _check_same(self, *elems: GroupElement):
        for e in elems:
            if not isinstance(e, GroupElement) or e.model != self:
                raise ModelMismatchError(f"{e!r} does not belong to {self.describe()}")

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        self._check_same(g, h)
        return GroupElement(self, self._op(g.value, h.value))

    def inverse(self, g: GroupElement) -> GroupElement:
        self._check_same(g)
        return GroupElement(self, self._inv(g.value))

    def identity(self) -> GroupElement:
        return GroupElement(self, self._id())

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

    def sample_uniform(self, region, rng: random.Random) -> GroupElement:
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

    def _id(self):
        return 0

    def haar_measure(self, subset: Iterable[int]) -> Fraction:
        vals = {self.normalize(v) for v in subset}
        return Fraction(len(vals), self.n)

    def translate_subset(self, subset: Iterable[int], g) -> frozenset:
        g = self.normalize(getattr(g, "value", g))
        return frozenset((self.normalize(v) + g) % self.n for v in subset)

    def elements(self) -> range:
        return range(self.n)

    def sample_uniform(self, region, rng: random.Random) -> GroupElement:
        if region is None:
            return GroupElement(self, rng.randrange(self.n))
        vals = sorted({self.normalize(v) for v in region})
        if not vals:
            raise UnsampleableError("cannot sample from an empty region")
        return GroupElement(self, vals[rng.randrange(len(vals))])

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

    def _id(self):
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

    def sample_uniform(self, region, rng: random.Random) -> GroupElement:
        if region is None:
            return GroupElement(self, tuple(rng.randrange(n) for n in self.orders))
        vals = sorted({self.normalize(v) for v in region})
        if not vals:
            raise UnsampleableError("cannot sample from an empty region")
        return GroupElement(self, vals[rng.randrange(len(vals))])

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

    def _id(self):
        return Fraction(0)

    def elements(self):
        raise ValueError("the real line is not a finite group; use cyclic:N or product:AxB")

    def window_set(self) -> ConstructibleSet:
        return ConstructibleSet.interval(self.lo, self.hi)

    def haar_measure(self, subset: ConstructibleSet) -> Fraction:
        return subset.measure()

    def sample_uniform(self, region, rng: random.Random, denom_bits: int = 53) -> GroupElement:
        if region is None:
            region = self.window_set()
        total = region.measure()
        if total == 0:
            raise UnsampleableError("region has measure zero")
        # Pick an interval with probability proportional to its length, then a
        # dyadic rational strictly inside it (open/closed flags then moot).
        scale = 1 << denom_bits
        ticket = Fraction(rng.randrange(scale), scale) * total
        acc = Fraction(0)
        chosen = region.intervals[-1]
        for iv in region.intervals:
            acc += iv.length
            if ticket < acc:
                chosen = iv
                break
        k = rng.randrange(1, scale)
        x = chosen.lo + chosen.length * Fraction(k, scale)
        return GroupElement(self, x)

    def describe(self) -> dict:
        return {
            "kind": "reals",
            "window": [format_rational(self.lo), format_rational(self.hi)],
        }


def model_from_descriptor(data: dict) -> GroupModel:
    """Build a model from its JSON descriptor, e.g. {"kind":"cyclic","n":12}."""
    kind = data.get("kind")
    if kind == "cyclic":
        return CyclicGroup(int(data["n"]))
    if kind == "product":
        return ProductGroup(tuple(int(n) for n in data["orders"]))
    if kind == "reals":
        lo, hi = data.get("window", ["0", "1"])
        return RealLine(parse_rational(str(lo)), parse_rational(str(hi)))
    raise ValueError(f"unknown group descriptor kind: {kind!r}")


def parse_model_spec(spec: str) -> GroupModel:
    """Parse CLI shorthand: "cyclic:12", "product:2x3", "reals:0,1"."""
    kind, _, rest = spec.partition(":")
    if kind == "cyclic":
        return CyclicGroup(int(rest))
    if kind == "product":
        return ProductGroup(tuple(int(p) for p in rest.split("x")))
    if kind == "reals":
        lo, hi = rest.split(",") if rest else ("0", "1")
        return RealLine(parse_rational(lo), parse_rational(hi))
    raise ValueError(f"unknown group spec {spec!r}")
