"""Shattering, VC dimension and dual VC dimension, for explicit finite
families and for translate families.

Finite families are bitmask rows over a finite ground set, searched
exhaustively with subset pruning (a set can only be shattered if the set
minus its largest point was).  Translate families over the continuous line
are kept implicit: a candidate point set is tested exactly by intersecting
translator sets (p - X is constructible whenever X is), so lower bounds come
with verified certificates while upper bounds remain search outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Optional

from .constructible import ConstructibleSet
from .errors import BudgetExceededError
from .rational import format_rational


@dataclass(frozen=True)
class SetSystem:
    """Finite ground set plus a deduplicated family of subsets."""

    ground: tuple
    rows: tuple[int, ...]
    row_labels: tuple = ()

    @classmethod
    def from_sets(cls, ground: Iterable, sets: Iterable[Iterable]):
        ground = tuple(ground)
        if len(set(ground)) != len(ground):
            raise ValueError("ground set labels must be unique")
        index = {g: i for i, g in enumerate(ground)}
        seen = {}
        for label, s in enumerate(sets):
            mask = 0
            for v in s:
                mask |= 1 << index[v]
            seen.setdefault(mask, label)
        rows = tuple(sorted(seen))
        labels = tuple(seen[m] for m in rows)
        return cls(ground, rows, labels)

    @classmethod
    def from_translates(cls, model, base: Iterable) -> "SetSystem":
        """Materialize the family of all translates of a base subset of a
        cyclic group model."""
        ground = tuple(model.elements())
        index = {g: i for i, g in enumerate(ground)}
        base_vals = [model.normalize(v) for v in base]
        seen = {}
        for g in ground:
            mask = 0
            for v in base_vals:
                mask |= 1 << index[model.compose(g, v)]
            seen.setdefault(mask, g)
        rows = tuple(sorted(seen))
        labels = tuple(seen[m] for m in rows)
        return cls(ground, rows, labels)

    def __len__(self):
        return len(self.rows)


@dataclass
class ShatterReport:
    """For each subset of the points (as a bitmask over the points list), a
    witnessing family row index, or None when no row cuts that subset out."""

    points: tuple
    witnesses: dict[int, Optional[int]]

    @property
    def shattered(self) -> bool:
        return all(w is not None for w in self.witnesses.values())

    def verify(self, system: SetSystem) -> bool:
        """Re-check every claimed witness by independent set intersection."""
        index = {g: i for i, g in enumerate(system.ground)}
        for pattern, w in self.witnesses.items():
            if w is None:
                continue
            row = system.rows[w]
            for j, p in enumerate(self.points):
                if bool(row >> index[p] & 1) != bool(pattern >> j & 1):
                    return False
        return True

    def to_json(self) -> dict:
        def fmt(p):
            return format_rational(p) if isinstance(p, Fraction) else p

        return {
            "points": [fmt(p) for p in self.points],
            "shattered": self.shattered,
            "witnesses": {
                format(pattern, f"0{max(1, len(self.points))}b"): w
                for pattern, w in sorted(self.witnesses.items())
            },
        }


def _shatter_report(system: SetSystem, idxs: list[int], points: tuple) -> ShatterReport:
    k = len(idxs)
    witnesses: dict[int, Optional[int]] = {p: None for p in range(2**k)}
    remaining = 2**k
    for r, row in enumerate(system.rows):
        pattern = 0
        for j, i in enumerate(idxs):
            pattern |= (row >> i & 1) << j
        if witnesses[pattern] is None:
            witnesses[pattern] = r
            remaining -= 1
            if remaining == 0:
                break
    return ShatterReport(points, witnesses)


def vc_dimension(system: SetSystem, max_checks: int = 5_000_000) -> tuple[int, ShatterReport]:
    """Exact VC dimension by level-wise exhaustive search: only shattered
    k-sets are extended to (k+1)-sets, which is complete because shattering
    is hereditary.  Returns one maximal shattered set as certificate."""
    if not system.rows:
        raise ValueError("empty family has no VC dimension")
    n = len(system.ground)
    best = _shatter_report(system, [], ())
    level: list[tuple[int, ...]] = [()]
    d = 0
    checks = 0
    while True:
        nxt = []
        nxt_report = None
        for t in level:
            start = t[-1] + 1 if t else 0
            for i in range(start, n):
                checks += len(system.rows)
                if checks > max_checks:
                    raise BudgetExceededError(
                        f"vc_dimension budget exceeded at size {d + 1}",
                        lower_bound=d,
                        partial=best,
                    )
                cand = t + (i,)
                rep = _shatter_report(system, list(cand), tuple(system.ground[j] for j in cand))
                if rep.shattered:
                    nxt.append(cand)
                    if nxt_report is None:
                        nxt_report = rep
        if not nxt:
            return d, best
        d += 1
        level = nxt
        best = nxt_report


def vc_dimension_naive(system: SetSystem) -> int:
    """Independent no-pruning oracle: try every subset of every size."""
    if not system.rows:
        raise ValueError("empty family has no VC dimension")
    n = len(system.ground)
    d = 0
    for k in range(1, n + 1):
        found = False
        for cand in combinations(range(n), k):
            rep = _shatter_report(system, list(cand), cand)
            if rep.shattered:
                found = True
                break
        if not found:
            return d
        d = k
    return d


def dual_vc_dimension(system: SetSystem, max_checks: int = 5_000_000) -> tuple[int, tuple]:
    """Largest n such that n family members generate a Venn diagram all of
    whose 2^n cells contain a ground element; returns witness row indices."""
    if not system.rows:
        raise ValueError("empty family has no dual VC dimension")
    if not system.ground:
        raise ValueError("empty ground set")
    r = len(system.rows)
    level: list[tuple[int, ...]] = [()]
    best: tuple = ()
    d = 0
    checks = 0
    while True:
        nxt = []
        for t in level:
            start = t[-1] + 1 if t else 0
            for i in range(start, r):
                cand = t + (i,)
                checks += len(system.ground)
                if checks > max_checks:
                    raise BudgetExceededError(
                        f"dual_vc_dimension budget exceeded at size {d + 1}",
                        lower_bound=d,
                        partial=best,
                    )
                if _all_cells_nonempty(system, cand):
                    nxt.append(cand)
        if not nxt:
            return d, best
        d += 1
        level = nxt
        best = nxt[0]


def _all_cells_nonempty(system: SetSystem, row_idxs: tuple[int, ...]) -> bool:
    k = len(row_idxs)
    want = 2**k
    seen = set()
    rows = [system.rows[i] for i in row_idxs]
    for j in range(len(system.ground)):
        sig = 0
        for b, row in enumerate(rows):
            sig |= (row >> j & 1) << b
        seen.add(sig)
        if len(seen) == want:
            return True
    return False


def sauer_shelah_table(system: SetSystem, d: int) -> tuple[bool, list[dict]]:
    """For each m <= |ground|, the largest number of distinct projections of
    the family onto an m-subset, against the binomial-sum bound for VC
    dimension d."""
    n = len(system.ground)
    if n > 16:
        raise BudgetExceededError("sauer_shelah_table is exhaustive; ground set too large")
    rows = []
    ok = True
    for m in range(n + 1):
        bound = sum(comb(m, i) for i in range(min(d, m) + 1))
        biggest = 0
        for cand in combinations(range(n), m):
            proj = set()
            for row in system.rows:
                p = 0
                for j, i in enumerate(cand):
                    p |= (row >> i & 1) << j
                proj.add(p)
            biggest = max(biggest, len(proj))
        if biggest > bound:
            ok = False
        rows.append({"m": m, "max_projections": biggest, "bound": bound})
    return ok, rows


# --------------------------------------------------------------------------
# translate families on the line


@dataclass
class TranslateVCReport:
    """Certified lower bound plus an honest search status for the upper side."""

    lower_bound: int
    points: tuple[Fraction, ...]
    pattern_translators: dict[str, Fraction]
    upper_bound_status: str
    grid_size: int

    def to_json(self) -> dict:
        return {
            "lower_bound": self.lower_bound,
            "points": [format_rational(p) for p in self.points],
            "pattern_translators": {
                pat: format_rational(g) for pat, g in sorted(self.pattern_translators.items())
            },
            "upper_bound_status": self.upper_bound_status,
            "grid_size": self.grid_size,
        }


def interesting_grid(
    x: ConstructibleSet, window: tuple[Fraction, Fraction], refine: int = 2, max_points: int = 64
) -> list[Fraction]:
    """Candidate shatter points: component endpoints, isolated points and
    midpoints of x, window ends, dyadically refined; decimated evenly when
    over budget so searches stay bounded."""
    lo, hi = Fraction(window[0]), Fraction(window[1])
    pts = {lo, hi}
    for clo, chi, _, _ in x.components():
        pts.update((clo, chi, (clo + chi) / 2))
    pts = {p for p in pts if lo <= p <= hi}
    for _ in range(refine):
        ordered = sorted(pts)
        for a, b in zip(ordered, ordered[1:]):
            pts.add((a + b) / 2)
    ordered = sorted(pts)
    if len(ordered) > max_points:
        step = Fraction(len(ordered) - 1, max_points - 1)
        ordered = [ordered[int(i * step)] for i in range(max_points)]
        ordered = sorted(set(ordered))
    return ordered


def _pattern_translator_set(
    x: ConstructibleSet,
    points: tuple[Fraction, ...],
    pattern: int,
    translator_window: ConstructibleSet,
) -> ConstructibleSet:
    """Exact set of translators g in the window with p in g+X exactly for the
    pattern's points: the intersection of p-X over selected points minus the
    union over the rest."""
    region = translator_window
    for j, p in enumerate(points):
        shifted = ConstructibleSet.point(p).minkowski_diff(x)
        if pattern >> j & 1:
            region = region.intersection(shifted)
        else:
            region = region.difference(shifted)
        if region.is_empty:
            break
    return region


def _points_shattered_by_translates(
    x: ConstructibleSet, points: tuple[Fraction, ...], translator_window: ConstructibleSet
) -> Optional[dict[int, Fraction]]:
    """Translator witnesses for all 2^k patterns, or None; every returned
    witness is re-verified by direct membership."""
    k = len(points)
    witnesses = {}
    for pattern in range(2**k):
        region = _pattern_translator_set(x, points, pattern, translator_window)
        if region.is_empty:
            return None
        g = region.any_point()
        translated = x.translate(g)
        for j, p in enumerate(points):
            if translated.contains(p) != bool(pattern >> j & 1):
                raise AssertionError("translator witness failed independent re-check")
        witnesses[pattern] = g
    return witnesses


def translate_vc_dimension(
    x: ConstructibleSet,
    window: tuple[Fraction, Fraction],
    max_size: int = 3,
    refine: int = 2,
    grid_max: int = 64,
    max_checks: int = 60_000,
) -> TranslateVCReport:
    """Search point tuples from the interesting grid for sets shattered by
    window-translates of x.  The lower bound is certified (explicit points
    and translators, re-verified by exact membership); the upper bound is
    only ever reported as a search outcome."""
    lo, hi = Fraction(window[0]), Fraction(window[1])
    translator_window = ConstructibleSet.interval(lo, hi)
    grid = interesting_grid(x, (lo, hi), refine, grid_max)
    level: list[tuple[int, ...]] = [()]
    best_points: tuple[Fraction, ...] = ()
    best_witnesses: dict[int, Fraction] = {}
    d = 0
    checks = 0
    exhausted = False
    while d < max_size and not exhausted:
        nxt = []
        nxt_best = None
        for t in level:
            start = t[-1] + 1 if t else 0
            for i in range(start, len(grid)):
                checks += 1
                if checks > max_checks:
                    exhausted = True
                    break
                cand = t + (i,)
                pts = tuple(grid[j] for j in cand)
                witnesses = _points_shattered_by_translates(x, pts, translator_window)
                if witnesses is not None:
                    nxt.append(cand)
                    if nxt_best is None:
                        nxt_best = (pts, witnesses)
            if exhausted:
                break
        if not nxt:
            break
        d += 1
        level = nxt
        best_points, best_witnesses = nxt_best
    if exhausted:
        status = f"budget of {max_checks} pattern checks exhausted at size {d + 1}"
    else:
        status = (
            f"no shattered {d + 1}-point set found among {len(grid)} grid candidates"
        )
    return TranslateVCReport(
        lower_bound=d,
        points=best_points,
        pattern_translators={
            format(pat, f"0{max(1, len(best_points))}b"): g for pat, g in best_witnesses.items()
        },
        upper_bound_status=status,
        grid_size=len(grid),
    )
