"""Shattering, VC dimension and dual VC dimension, for explicit finite
families and for translate families.

All the searches share one level-wise search with subset pruning (a set
can only be shattered if the set minus its largest point was), each under a
budget of tuples tried whose exhaustion raises BudgetExceededError with the
last complete size.  Finite families are bitmask rows over a finite ground
set.  A point tuple is tested by the Venn cells of its point masks (the rows
holding each point), a tuple of rows by the Venn cells of the rows, and the
tuple found is re-checked on the rows.  When the rows are exactly the
rotations of one mask, as for a translate family in Z_N, both searches fix
the first index at 0 and the point masks are the rotations of the reflected
base.
Translate families over the continuous line are kept implicit: the
translators g with p in g + X form the constructible set p - X, and every
such set of the candidate grid is put once on one integer lattice of sweep
keys, so a candidate point tuple is tested by one merged walk that must see
all 2^k membership signatures inside the translator window.  The
translators of the tuple reported are read off that walk and re-verified by
membership, so lower bounds come with verified certificates while upper
bounds remain search outcomes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

from .constructible import ConstructibleSet, on_lattice
from .errors import BudgetExceededError
from .rational import format_rational

# Default budget of the finite searches, in index tuples tried.
MAX_TRIES = 250_000

# Default budget of the line-translate search, in candidate point tuples.
MAX_TRANSLATE_TRIES = 100_000


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
        cyclic group model.  The elements are 0..n-1, so each translate's
        label (its index) is its translator."""
        mask = 0
        for v in base:
            mask |= 1 << model.normalize(v)
        seen = {}
        for g, row in enumerate(_rotations(mask, model.n)):
            seen.setdefault(row, g)
        rows = tuple(sorted(seen))
        return cls(tuple(model.elements()), rows, tuple(seen[m] for m in rows))

    def __len__(self):
        return len(self.rows)

    @cached_property
    def _orbit_base(self) -> Optional[int]:
        """rows[0] when the rows are exactly its rotations over the ground
        positions, as `from_translates` builds them; else None.  They are iff
        the first len(rows) rotations are distinct rows, found by bisection
        in the sorted rows, and the next rotation is rows[0] again.  Cached,
        since both searches ask."""
        n, rows = len(self.ground), self.rows
        if len(rows) > n:
            return None
        base, full = rows[0], (1 << n) - 1
        for g in range(1, len(rows) + 1):
            rot = (base << g | base >> (n - g)) & full
            if g == len(rows):
                return base if rot == base else None
            i = bisect_left(rows, rot)
            if rot == base or i == len(rows) or rows[i] != rot:
                return None


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


def _levelwise(n: int, test, max_tries: int, name: str, heads: Optional[int] = None):
    """Hereditary level-wise search over increasing index tuples of range(n):
    a (k+1)-tuple is tried only as an extension of a k-tuple that passes
    `test`, which is complete because shattering (and the dual property) is
    hereditary.  Only tuples whose first index is below `heads` (default n)
    are tried.

    Returns (d, t): d is the largest size of a passing tuple and t the first
    such d-tuple.  Trying more than max_tries tuples raises
    BudgetExceededError carrying the last complete level as `lower_bound`
    and its first tuple as `partial`."""
    level: list[tuple[int, ...]] = [()]
    tries = 0
    while True:
        nxt = []
        for t in level:
            for i in range(t[-1] + 1, n) if t else range(n if heads is None else heads):
                tries += 1
                if tries > max_tries:
                    raise BudgetExceededError(f"{name} budget exceeded at size {len(t) + 1}",
                                              lower_bound=len(t), partial=level[0])
                cand = t + (i,)
                if test(cand):
                    nxt.append(cand)
        if not nxt:
            return len(level[0]), level[0]
        level = nxt


def _rotations(mask: int, n: int) -> list[int]:
    """The n rotations of an n-bit mask; entry g moves bit v to bit v + g mod n."""
    full = (1 << n) - 1
    return [(mask << g | mask >> (n - g)) & full for g in range(n)]


def _venn_witness(masks: Sequence[int], n: int):
    """`test(cand)` for `_levelwise`: whether all 2^k Venn cells of the n-bit
    masks of cand, built with & and & ~, are nonempty.  The cells of
    cand[:-1] are kept between calls, since `_levelwise` tries all
    extensions of one tuple in a row."""
    prefix, cells = None, []

    def test(cand: tuple[int, ...]) -> bool:
        nonlocal prefix, cells
        if cand[:-1] != prefix:
            prefix, cells = cand[:-1], [(1 << n) - 1]
            for i in prefix:
                cells = [part for c in cells for part in (c & masks[i], c & ~masks[i])]
        m = masks[cand[-1]]
        for c in cells:
            cut = c & m
            if not cut or cut == c:
                return False
        return True

    return test


def _venn_search(masks: Sequence[int], width: int, heads: Optional[int], max_tries: int, name: str, check):
    """`_levelwise` over the index tuples of `masks` whose width-bit masks
    have all Venn cells nonempty.  The tuple found, and the budget partial,
    are passed through `check`, a re-check on the rows."""
    try:
        d, cand = _levelwise(len(masks), _venn_witness(masks, width), max_tries, name, heads)
    except BudgetExceededError as exc:
        raise BudgetExceededError(str(exc), exc.lower_bound, check(exc.partial)) from None
    return d, check(cand)


def vc_dimension(system: SetSystem, max_tries: int = MAX_TRIES) -> tuple[int, ShatterReport]:
    """Exact VC dimension, with one maximal shattered set as certificate.  A
    point tuple is shattered iff the Venn cells of its point masks, the sets
    of rows holding each point, are all nonempty.  In a translate family of
    Z_N (see `SetSystem._orbit_base`) the translators g with t in g + X form
    t - X, a rotation of the mask of -X; a translate of a shattered set is
    shattered, so the lexicographically first shattered d-tuple starts at
    point 0, and the search fixes the first point there.  The report of the
    tuple found is built by row intersection and must show it shattered.
    Trying more than max_tries tuples raises BudgetExceededError whose
    `partial` is the report of the last complete size."""
    if not system.rows:
        raise ValueError("empty family has no VC dimension")
    n, rows = len(system.ground), system.rows
    base = system._orbit_base
    if base is None:
        masks = [sum((row >> j & 1) << r for r, row in enumerate(rows)) for j in range(n)]
        width, heads = len(rows), None
    else:
        reflected = sum(1 << (-v % n) for v in range(n) if base >> v & 1)
        masks, width, heads = _rotations(reflected, n), n, 1

    def report(cand: tuple[int, ...]) -> ShatterReport:
        rep = _shatter_report(system, list(cand), tuple(system.ground[j] for j in cand))
        if not rep.shattered:
            raise AssertionError("shattered tuple failed independent re-check")
        return rep

    return _venn_search(masks, width, heads, max_tries, "vc_dimension", report)


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


def dual_vc_dimension(system: SetSystem, max_tries: int = MAX_TRIES) -> tuple[int, tuple]:
    """Largest n such that n family members generate a Venn diagram all of
    whose 2^n cells contain a ground element; returns witness row indices.
    In a translate family every row is a translate of rows[0], and shifting
    all translators by one h keeps the cells nonempty, so the search fixes
    the first row at 0.  The rows found are re-checked by a scan of the
    ground set.  Budget as in `vc_dimension`, with the last complete rows as
    `partial`."""
    if not system.rows:
        raise ValueError("empty family has no dual VC dimension")
    if not system.ground:
        raise ValueError("empty ground set")

    def recheck(rows: tuple[int, ...]) -> tuple[int, ...]:
        if not _all_cells_nonempty(system, rows):
            raise AssertionError("dual witness rows failed independent re-check")
        return rows

    heads = None if system._orbit_base is None else 1
    return _venn_search(system.rows, len(system.ground), heads, max_tries, "dual_vc_dimension", recheck)


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
    for clo, chi, _, _ in x.pieces:
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
    return ordered


def _translator_keys(
    x: ConstructibleSet, points: list[Fraction], window: tuple[Fraction, Fraction]
) -> tuple[list[list[int]], int, int, int]:
    """The translator set p - x of each point, clipped to the window, as the
    sorted integer keys where its membership flips, the window's own key
    range [start, end), and the lattice denominator L.

    `constructible.on_lattice` puts x's endpoints, the points and the window
    ends on (1/L)ℤ, L the lcm of their denominators, so every endpoint of
    every p - x lies on it too.  The keys are those of `constructible._sweep`:
    (v, False) is 2·v·L and (v, True) is 2·v·L + 1, and a piece is a
    half-open range of keys.  Even keys are the lattice points and odd keys
    the open cells between them, so each key stands for a nonempty set of
    translators that every p - x holds whole or not at all.  The component
    (a, b) of x, closed at the ends lc and hc, gives the piece (p - b, p - a)
    of p - x, closed at hc and lc."""
    comps = x.pieces[::-1]
    den, (lo, hi, *units) = on_lattice([*window, *points, *(v for c in comps for v in c[:2])])
    ats, ends = units[:len(points)], units[len(points):]
    start, end = 2 * lo, 2 * hi + 1
    pieces = [(a, b, lc, hc) for (_, _, lc, hc), a, b in zip(comps, ends[::2], ends[1::2])]
    keys = []
    for at in ats:
        flips = []
        for a, b, lc, hc in pieces:
            first = max(2 * (at - b) + (not hc), start)
            stop = min(2 * (at - a) + lc, end)
            if first < stop:
                flips += (first, stop)
        keys.append(flips)
    return keys, start, end, den


def _signature_ranges(
    keys: list[list[int]], start: int, end: int, cand: tuple[int, ...]
) -> dict[int, tuple[int, int]]:
    """Each signature the window's translators show on the points cand (bit j
    is membership in the j-th translator set), with its first key range
    [k1, k2) that holds an interval, or else its first single lattice point
    (even k1, k2 = k1 + 1), from one merged walk over their flip keys.  No
    key flips one set twice, so each range is a whole component."""
    events = sorted((key, 1 << j) for j, i in enumerate(cand) for key in keys[i])
    events.append((end, 0))
    point_ranges: dict[int, tuple[int, int]] = {}
    interval_ranges: dict[int, tuple[int, int]] = {}
    signature, at = 0, start
    for key, bit in events:
        if key > at:
            if key == at + 1 and at % 2 == 0:
                point_ranges.setdefault(signature, (at, key))
            else:
                interval_ranges.setdefault(signature, (at, key))
            at = key
        signature ^= bit
    point_ranges.update(interval_ranges)
    return point_ranges


def _read_translators(
    x: ConstructibleSet, points: tuple[Fraction, ...], ranges: dict[int, tuple[int, int]], den: int
) -> dict[int, Fraction]:
    """The midpoint of each pattern's key range [k1, k2), which runs from
    (k1 - k1 % 2) / 2L to (k2 - k2 % 2) / 2L, re-verified by membership."""
    translators = {}
    for pattern, (k1, k2) in ranges.items():
        g = Fraction(k1 - k1 % 2 + k2 - k2 % 2, 4 * den)
        translated = x.translate(g)
        for j, p in enumerate(points):
            if translated.contains(p) != bool(pattern >> j & 1):
                raise AssertionError("translator witness failed independent re-check")
        translators[pattern] = g
    return translators


def translate_vc_dimension(
    x: ConstructibleSet,
    window: tuple[Fraction, Fraction],
    refine: int = 2,
    grid_max: int = 64,
    max_tries: int = MAX_TRANSLATE_TRIES,
) -> TranslateVCReport:
    """Search point tuples from the interesting grid for sets shattered by
    window-translates of x, each tuple tested by one integer sweep.  The
    translators of the reported tuple are read off that sweep's key ranges
    and re-verified by membership, so the lower bound is certified; the
    upper bound is only ever reported as a search outcome.  Trying more than
    max_tries tuples raises BudgetExceededError whose `partial` is the
    report of the last complete size."""
    lo, hi = Fraction(window[0]), Fraction(window[1])
    grid = interesting_grid(x, (lo, hi), refine, grid_max)
    keys, start, end, den = _translator_keys(x, grid, (lo, hi))

    def shattered(cand: tuple[int, ...]) -> bool:
        return len(_signature_ranges(keys, start, end, cand)) == 1 << len(cand)

    def report(cand: tuple[int, ...], status: str) -> TranslateVCReport:
        points = tuple(grid[j] for j in cand)
        # The empty tuple is reported without translators.
        ranges = _signature_ranges(keys, start, end, cand) if cand else {}
        witnesses = _read_translators(x, points, ranges, den)
        width = max(1, len(points))
        return TranslateVCReport(
            lower_bound=len(points),
            points=points,
            pattern_translators={format(pat, f"0{width}b"): g for pat, g in witnesses.items()},
            upper_bound_status=status,
            grid_size=len(grid),
        )

    try:
        d, cand = _levelwise(len(grid), shattered, max_tries, "translate_vc_dimension")
    except BudgetExceededError as exc:
        status = (f"search budget of {max_tries} tries spent at size {exc.lower_bound + 1}; "
                  "larger sets were not all tried")
        raise BudgetExceededError(str(exc), exc.lower_bound, report(exc.partial, status)) from None
    return report(cand, f"no shattered {d + 1}-point set found among {len(grid)} grid candidates")
