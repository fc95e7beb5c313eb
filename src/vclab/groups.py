"""The finite cyclic group Z_n and a seeded uniform sampler.

This is the one group model of the translate-family commands (`vcdim` and
`eps-approx`).  Elements are plain ints, the group law is + mod n and the
Haar measure is normalized counting measure, so the engines do that
arithmetic on ints with `n`.  Translates on the line are handled directly by
`ConstructibleSet` and `FatCantorSet`, without a group model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat


@dataclass(frozen=True)
class CyclicGroup:
    """Integers mod n; any int stands for its residue."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cyclic order must be >= 1")

    def sample(self, rng: random.Random, k: int) -> list[int]:
        """k uniform draws, exactly [rng.randrange(n) for _ in range(k)], with
        rng left where those calls leave it: CPython 3.10 through 3.13 draw
        n.bit_length() bits until they are below n, and a batch keeps its
        accepted draws in order and asks for no more than are still missing."""
        n, bits = self.n, self.n.bit_length()
        def batch(size):
            return [r for r in map(rng.getrandbits, repeat(bits, size)) if r < n]
        draws = batch(k)
        while len(draws) < k:
            draws += batch(k - len(draws))
        return draws


def parse_model_spec(spec: str) -> CyclicGroup:
    """Parse the CLI shorthand "cyclic:N"."""
    kind, _, rest = spec.partition(":")
    if kind == "cyclic":
        try:
            return CyclicGroup(int(rest))
        except ValueError:
            pass
    raise ValueError(f"group spec {spec!r} must be cyclic:N with an integer N >= 1")
