"""The discrete counterexample family: inside each removed interval of the
fat Cantor construction, a finite increasing sequence of rational points
accumulating geometrically at both ends, chosen greedily so that all
pairwise differences across the whole point set are distinct.

Distinct pairwise differences force any two points to lie in at most one
common translate of the set, which is the combinatorial mechanism that caps
the number of membership patterns any translate family can realize on a
triple at seven of the eight.

Lemma.  If every nonzero difference of a finite set D occurs once, the
translates of D shatter no triple, and once |D| >= 2 the translate VC
dimension of D is exactly 2.  Proof: p < q lie in t + D together iff
p - t = x and q - t = y for x, y in D with y - x = q - p, and that
difference occurs once, so t is unique.  Shattering {p, q, r} needs one
translate holding all three and one holding p and q but not r, and both
hold p and q.  For x < y in D, with u = y - x, D holds both, D + u holds y
but not x (else 2x - y and x in D would repeat u), D - u holds x but not y,
and a far translate holds neither, so {x, y} is shattered.  On a triple of D
itself, D holds all three, a pair of it lies in no other translate, and
p - x' + D for x' != p in D holds p alone, so its patterns are exactly
000, 001, 010, 100 and 111.

Two exact integer mechanisms, sharing no arithmetic, do the work:

- Greedy placement maps each rational n/d to its residue n * d^-1 mod the
  prime P = 2^61 - 1.  The map respects sums and differences, so different
  residues prove different values, and a placed difference is kept as a
  residue.  A residue hit is re-checked in Fractions before a candidate is
  turned down, and a value whose denominator P divides is compared exactly.
- The checks (injectivity, pair counts, triple patterns) scale the finished
  point set by the lcm L of its denominators onto the integer lattice
  (1/L)Z, where every sum and difference is an exact int; all three read
  one table, the counts of the C(m, 2) positive differences, built once.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Optional, Sequence

from .cantor import FatCantorSet
from .constructible import ConstructibleSet, on_lattice

MODULUS = 2**61 - 1

# The most points a truncation may place: the stage-8 matched truncation's
# 839, which with its difference table takes about 1 s and 130 MB (CPython
# 3.11, one Xeon core); both keep one entry per pair, so grow as its square.
MAX_POINTS = 839


def _residue(x: Fraction) -> Optional[int]:
    """x = n/d as n * d^-1 mod MODULUS, or None when MODULUS divides d."""
    try:
        return x.numerator * pow(x.denominator, -1, MODULUS) % MODULUS
    except ValueError:
        return None


def _difference_key(d: Fraction):
    """The residue of d up to sign, or |d| itself when it has no residue."""
    r = _residue(d)
    if r is None:
        return abs(d)
    return min(r, MODULUS - r)


def sequence_positions(a: Fraction, b: Fraction, k: int) -> list[tuple[int, Fraction]]:
    """Base positions c_j = a + len * 2^j / (2^j + 1) for j in [-k, k]:
    strictly increasing, approaching a and b geometrically (the distance to
    the nearer end at index +-j is len / (2^j + 1) <= len * 2^-j)."""
    length = b - a
    out = []
    for j in range(-k, k + 1):
        w = Fraction(2**j) if j >= 0 else Fraction(1, 2**-j)
        out.append((j, a + length * w / (w + 1)))
    return out


@dataclass
class CounterexamplePoints:
    """The constructed truncation with its per-interval layout."""

    points: tuple[Fraction, ...]
    by_interval: tuple[tuple[int, Fraction, Fraction, tuple[Fraction, ...]], ...]

    def as_set(self) -> ConstructibleSet:
        return ConstructibleSet.from_points(self.points)

    def point_set(self) -> frozenset:
        return frozenset(self.points)

    @cached_property
    def lattice(self) -> PointLattice:
        return PointLattice(self.points)


class _Placement:
    """Placed points, their residues and the residue keys of their
    pairwise differences.

    The key of a difference d is its residue up to sign, min(r, P - r), or
    |d| itself when P divides its denominator.  Equal |d| give equal keys, so
    a key not seen before proves the difference new; a key seen before is
    re-checked exactly before a candidate is turned down."""

    # A rejected candidate usually collides with a recently placed point (at
    # m = 7, 71% of rejections have a collision among the newest tenth), so
    # candidates are scanned newest-first in blocks of this size.
    BLOCK = 64

    def __init__(self):
        self.points: list[Fraction] = []
        self.residues: list[Optional[int]] = []
        # key -> (i, j, i', j', ...): the index pairs whose |x_i - x_j| has that key
        self.pairs: dict[object, tuple[int, ...]] = {}

    def _keys(self, cand: Fraction, rc: Optional[int], lo: int, hi: int) -> list:
        """The key of |cand - p| for the placed points lo..hi-1."""
        m, half = MODULUS, MODULUS // 2
        return [
            _difference_key(cand - p) if rc is None or r is None
            else a if (a := abs(rc - r)) <= half else m - a
            for p, r in zip(self.points[lo:hi], self.residues[lo:hi])
        ]

    def _fresh_keys(self, cand: Fraction, rc: Optional[int]) -> Optional[list]:
        """The keys of |cand - p| for every placed p, in placing order, when
        every |cand - p| is nonzero and differs from every placed difference
        and from every other |cand - p'|; None otherwise."""
        pts, pairs = self.points, self.pairs
        blocks = []
        for hi in range(len(pts), 0, -self.BLOCK):
            lo = max(0, hi - self.BLOCK)
            block = self._keys(cand, rc, lo, hi)
            if not pairs.keys().isdisjoint(block):
                for i, key in enumerate(block, lo):
                    if key in pairs:
                        gap = abs(cand - pts[i])
                        ends = pairs[key]
                        if any(abs(pts[x] - pts[y]) == gap for x, y in zip(ends[::2], ends[1::2])):
                            return None
            blocks.append(block)
        keys = [key for block in reversed(blocks) for key in block]
        if 0 in keys or len(set(keys)) < len(keys):
            counts = Counter(keys)
            gaps = set()
            for key, p in zip(keys, pts):
                if key == 0 or counts[key] > 1:
                    gap = abs(cand - p)
                    if gap == 0 or gap in gaps:
                        return None
                    gaps.add(gap)
        return keys

    def place(self, cand: Fraction) -> bool:
        """Place cand if all its differences to the placed points are fresh."""
        rc = _residue(cand)
        keys = self._fresh_keys(cand, rc)
        if keys is None:
            return False
        n, pairs = len(self.points), self.pairs
        for i, key in enumerate(keys):
            pairs[key] = pairs.get(key, ()) + (n, i)
        self.points.append(cand)
        self.residues.append(rc)
        return True


def counterexample_points(
    fc: FatCantorSet,
    interval_budget: Optional[int],
    per_interval: int | Callable[[int], int],
    max_stage: int = 64,
) -> CounterexamplePoints:
    """Greedy difference-injective truncation.

    The first interval_budget intervals (all through max_stage if None) are
    taken in construction order (stage, then position); inside each, base
    positions are perturbed inward within a quarter of the gap to the
    neighboring position, taking the first rational (by a fixed
    denominator-growth enumeration) whose differences to all previously
    placed points are fresh.  per_interval may be a constant or a
    stage-indexed budget k, for 2k + 1 points; more than MAX_POINTS in all
    are refused before placement.  Freshness is decided on residues mod
    MODULUS with an exact re-check of every residue hit; injectivity is
    re-verified on the integer lattice before return.
    """
    if interval_budget is not None and interval_budget < 1:
        raise ValueError("need at least one interval")
    chosen: list[tuple[int, Fraction, Fraction, int]] = []
    planned = 0
    for stage, a, b in fc.removed_intervals(max_stage):
        k = per_interval if isinstance(per_interval, int) else per_interval(stage)
        if k < 1:
            raise ValueError("per-interval budget must be >= 1")
        planned += 2 * k + 1
        if planned > MAX_POINTS:
            raise ValueError(f"the truncation would place more than {MAX_POINTS} points, "
                             "the size of the stage-8 matched truncation")
        chosen.append((stage, a, b, k))
        if len(chosen) == interval_budget:
            break
    if interval_budget is not None and len(chosen) < interval_budget:
        raise ValueError(f"only {len(chosen)} intervals exist through stage {max_stage}")

    placement = _Placement()
    layout = []
    for stage, a, b, k in chosen:
        base = dict(sequence_positions(a, b, k))
        order = [0]
        for j in range(1, k + 1):
            order += [j, -j]
        here: dict[int, Fraction] = {}
        for j in order:
            t, i = base[j], abs(j)
            # c_-j = a + b - c_j, so the gap from c_-j to its neighbour
            # toward a equals the gap from c_j to its neighbour toward b.
            corridor = ((base[i + 1] if i < k else b) - base[i]) / 4
            direction = 1 if j >= 0 else -1
            point = None
            # First candidate is the base position itself, then inward nudges
            # corridor/2, corridor/3, ... with ever-larger denominators.  The
            # bound is 2n(D + n) + 4 for n points and D = C(n, 2) differences.
            n = len(placement.points)
            for h in range(2 * n * (n * (n - 1) // 2 + n) + 4):
                cand = t if h == 0 else t + direction * corridor / (h + 1)
                if placement.place(cand):
                    point = cand
                    break
            if point is None:
                raise AssertionError("greedy perturbation ran out of candidates")
            here[j] = point
        ordered = tuple(here[j] for j in sorted(here))
        if list(ordered) != sorted(ordered):
            raise AssertionError("per-interval sequence lost monotonicity")
        layout.append((stage, a, b, ordered))

    cx = CounterexamplePoints(tuple(sorted(placement.points)), tuple(layout))
    if not verify_difference_injective(cx.lattice):
        raise AssertionError("greedy construction failed the final injectivity check")
    return cx


def matched_budget_points(fc: FatCantorSet, m: int) -> CounterexamplePoints:
    """Stage-m matched truncation: all removed intervals of stages <= m, each
    carrying enough points that every limit-set point at stage m is within
    2^-m of the truncation (interval of stage s gets max(1, m + 2 - 2s))."""
    if m < 1:
        raise ValueError("need at least one interval")
    return counterexample_points(
        fc,
        interval_budget=None,
        per_interval=lambda s: max(1, m + 2 - 2 * s),
        max_stage=m,
    )


class PointLattice:
    """A finite point set on the integer lattice (1/L)Z, where L is the lcm
    of its denominators: each point x is stored as the int x * L.  Sums and
    differences of points stay exact ints, so the checks below hash and add
    ints instead of Fractions.  `counts` holds, for each positive difference
    u, the number of pairs x < y of distinct members with y - x = u."""

    def __init__(self, points: Iterable[Fraction]):
        self.scale, ints = on_lattice([Fraction(p) for p in points])
        self.ints = tuple(ints)
        self.members = frozenset(self.ints)
        self.counts = Counter(y - x for x, y in combinations(sorted(self.members), 2))

    def __len__(self) -> int:
        return len(self.ints)

    def units(self, x: Fraction) -> Optional[int]:
        """x * L, or None when x is not on the lattice."""
        q, r = divmod(x.numerator * self.scale, x.denominator)
        return None if r else q

    def count(self, u: int) -> int:
        """|S_u| for S_u = {x in X : x + u in X}: for u > 0, x -> (x, x + u)
        maps S_u one to one onto the pairs in counts[u]; S_-u = S_u + u, and
        S_0 = X.  The count-1 lemma the triple check reads: if |S_u| = 1 and
        both p and p + u are members, then p is in S_u, so S_u = {p}."""
        return self.counts[abs(u)] if u else len(self.members)


@lru_cache(maxsize=1)
def _cached_lattice(points_set: frozenset) -> PointLattice:
    return PointLattice(points_set)


def verify_difference_injective(points: Sequence[Fraction] | PointLattice) -> bool:
    """Exact check that all C(n,2) positive pairwise differences are distinct:
    no point repeats, and the m members' C(m, 2) differences fill C(m, 2)
    keys of the table, so each count is 1."""
    lattice = points if isinstance(points, PointLattice) else PointLattice(points)
    m = len(lattice.members)
    return len(lattice) == m and len(lattice.counts) == comb(m, 2)


def pair_translate_count(points_set: frozenset, p: Fraction, q: Fraction) -> int:
    """Number of translators t with both p and q in t + X; difference
    injectivity forces this to be at most one.  The lattice of the last
    point set asked about is kept for the next call."""
    lattice = _cached_lattice(points_set)
    u = lattice.units(Fraction(q) - Fraction(p))
    return 0 if u is None else lattice.count(u)


def pair_uniqueness_holds(lattice: PointLattice) -> bool:
    """Exhaustive check that every pair lies in at most one common translate:
    every difference u of a pair has |S_u| <= 1.  With no repeated point
    that is difference injectivity.  A repeated point is a pair with
    difference 0, and |S_0| = m, so then uniqueness holds iff m == 1."""
    return verify_difference_injective(lattice) or len(lattice.members) == 1


@dataclass
class ShatterCheckReport:
    triples_checked: int
    max_patterns: int
    full_shatter_found: bool
    pair_uniqueness_ok: bool


def realized_patterns(lattice: PointLattice, triple: Sequence[Fraction]) -> set[int]:
    """All membership patterns of the triple over every translate that meets
    it, plus the empty pattern (any far-away translate realizes it).

    A translate meeting the triple is t + X with t = p_i - x for some i and
    some x in X; its pattern has bit j exactly when x is in S_u for the
    difference u = p_j - p_i, S_u = {x in X : x + u in X}.  The triple is put
    on the lattice once and its differences taken as ints; a pair with an end
    off the lattice is put there on its own, since its difference may still
    lie on it.  |S_u| is read off the difference table: a count of 0 leaves
    S_u empty, and a count of 1 with both p_i and p_j members gives S_u =
    {p_i} (the count-1 lemma of `PointLattice.count`).  Only a difference
    with a count of 2 or more is scanned over the members."""
    members = lattice.members
    ends = [lattice.units(p) for p in triple]
    patterns = {0}
    for i, p in enumerate(triple):
        hits = []
        for j, q in enumerate(triple):
            if j == i:
                continue
            if ends[i] is None or ends[j] is None:
                u = lattice.units(Fraction(q) - Fraction(p))
                if u is None:
                    continue
            else:
                u = ends[j] - ends[i]
            count = lattice.count(u)
            if count == 1 and ends[i] in members and ends[j] in members:
                hits.append((1 << j, {ends[i]}))
            elif count:
                hits.append((1 << j, {x for x in members if x + u in members}))
        met = set().union(*(xs for _, xs in hits))
        for x in met:
            patterns.add(sum(bit for bit, xs in hits if x in xs) | 1 << i)
        if len(met) < len(members):
            patterns.add(1 << i)
    return patterns


def no_shatter3_check(cx: CounterexamplePoints, n_triples: int, seed: int = 0) -> ShatterCheckReport:
    """Enumerate, for seeded random triples from the truncation, every
    translator that realizes a nonempty pattern, and count the patterns
    realized; with difference injectivity no triple can reach all eight.
    Only the running maximum is kept: a triple has at most eight patterns,
    so a full shatter is a maximum of eight.  Pair uniqueness is read
    exhaustively off the same lattice's difference table."""
    rng = random.Random(f"shatter3/{seed}")
    lattice = cx.lattice
    best = max((len(realized_patterns(lattice, tuple(rng.sample(cx.points, 3))))
                for _ in range(n_triples)), default=0)
    return ShatterCheckReport(n_triples, best, best == 8, pair_uniqueness_holds(lattice))
