"""Reference counterexample kernels in plain `Fraction` arithmetic.

Greedy placement keeps every placed difference as an exact (numerator,
denominator) pair; the pair count, the pair check and the pattern
enumeration add and subtract Fractions.  The tests compare
`vclab.counterexample`, which places points by residues mod a prime and
checks them on an integer lattice, against these functions.
"""

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from vclab.counterexample import sequence_positions


@dataclass
class Points:
    points: tuple
    by_interval: tuple


def counterexample_points(fc, interval_budget, per_interval, max_stage=64):
    chosen = []
    for stage, a, b in fc.removed_intervals(max_stage):
        chosen.append((stage, a, b))
        if len(chosen) == interval_budget:
            break
    diffs = set()
    placed = []
    layout = []
    for stage, a, b in chosen:
        k = per_interval if isinstance(per_interval, int) else per_interval(stage)
        base = dict(sequence_positions(a, b, k))
        order = [0]
        for j in range(1, k + 1):
            order += [j, -j]
        here = {}
        for j in order:
            t = base[j]
            if j >= 0:
                gap = (base[j + 1] if j + 1 in base else b) - t
                direction = 1
            else:
                gap = t - (base[j - 1] if j - 1 in base else a)
                direction = -1
            corridor = gap / 4
            point = None
            for h in range(2 * len(placed) * (len(diffs) + len(placed)) + 4):
                cand = t if h == 0 else t + direction * corridor / (h + 1)
                new = set()
                fresh = True
                for p in placed:
                    d = abs(cand - p)
                    key = (d.numerator, d.denominator)
                    if d == 0 or key in diffs or key in new:
                        fresh = False
                        break
                    new.add(key)
                if fresh:
                    point = cand
                    diffs |= new
                    break
            if point is None:
                raise AssertionError("greedy perturbation ran out of candidates")
            placed.append(point)
            here[j] = point
        layout.append((stage, a, b, tuple(here[j] for j in sorted(here))))
    return Points(tuple(sorted(placed)), tuple(layout))


def matched_budget_points(fc, m):
    return counterexample_points(
        fc, 2**m - 1, lambda s: max(1, m + 2 - 2 * s), max_stage=max(m, 1)
    )


def verify_difference_injective(points):
    seen = set()
    for x, y in combinations(points, 2):
        d = abs(y - x)
        if d == 0 or d in seen:
            return False
        seen.add(d)
    return True


def pair_translate_count(points_set, p, q):
    delta = q - p
    return sum(1 for x in points_set if x + delta in points_set)


def pair_uniqueness_holds(points):
    # Counts every difference once instead of calling pair_translate_count
    # per pair: the same numbers, in a fraction of the time.
    pset = frozenset(points)
    counts = Counter(y - x for x in pset for y in pset)
    return all(counts[q - p] <= 1 for p, q in combinations(points, 2))


def realized_patterns(points_set, triple):
    patterns = {0}
    for t in {p - x for p in triple for x in points_set}:
        patterns.add(sum(1 << j for j, p in enumerate(triple) if p - t in points_set))
    return patterns


def no_shatter3_check(points, n_triples, seed=0):
    """(triples checked, max patterns, full shatter found, pair uniqueness),
    the fields of `ShatterCheckReport` in order."""
    rng = random.Random(f"shatter3/{seed}")
    pts = list(points)
    pset = frozenset(pts)
    counts = [len(realized_patterns(pset, tuple(rng.sample(pts, 3)))) for _ in range(n_triples)]
    return n_triples, max(counts, default=0), 8 in counts, pair_uniqueness_holds(pts)
