"""Reference fat-Cantor walk in plain `Fraction` arithmetic.

Every value is recomputed from the removal schedule alone (the midpoint of
the component minus and plus half of scale * 4^-stage), with no lattice and
no integer scaling.  The tests compare `vclab.cantor`, which reads positions
off closed-form addresses on an exact integer lattice, against these
functions, and the witness replay oracle walks `descend`.
"""

from fractions import Fraction

HALF = Fraction(1, 2)
WINDOW = (Fraction(0), Fraction(1))


def middle_gap(scale, lo, hi, stage):
    half = Fraction(scale) / 4**stage * HALF
    mid = (lo + hi) * HALF
    a, b = mid - half, mid + half
    if not (lo < a < b < hi):
        raise ValueError(f"stage-{stage} gap does not fit inside [{lo}, {hi}]")
    return a, b


def stage_components(scale, m):
    comps = [WINDOW]
    for s in range(1, m + 1):
        nxt = []
        for lo, hi in comps:
            a, b = middle_gap(scale, lo, hi, s)
            nxt += [(lo, a), (b, hi)]
        comps = nxt
    return comps


def removed_intervals(scale, upto):
    comps = [WINDOW]
    out = []
    for s in range(1, upto + 1):
        nxt = []
        for lo, hi in comps:
            a, b = middle_gap(scale, lo, hi, s)
            out.append((s, a, b))
            nxt += [(lo, a), (b, hi)]
        comps = nxt
    return out


def descend(scale, x, budget):
    x = Fraction(x)
    lo, hi = WINDOW
    if x < lo or x > hi:
        return ("outside",)
    for s in range(1, budget + 1):
        if x == lo or x == hi:
            return ("endpoint", s - 1, lo, hi)
        a, b = middle_gap(scale, lo, hi, s)
        if a < x < b:
            return ("gap", s, a, b)
        if x <= a:
            hi = a
        else:
            lo = b
    if x == lo or x == hi:
        return ("endpoint", budget, lo, hi)
    return ("component", budget, lo, hi)


def component_of(scale, x, m):
    """(lo, hi) of the stage-m component containing x, or None."""
    x = Fraction(x)
    lo, hi = WINDOW
    if x < lo or x > hi:
        return None
    for s in range(1, m + 1):
        a, b = middle_gap(scale, lo, hi, s)
        if a < x < b:
            return None
        if x <= a:
            hi = a
        else:
            lo = b
    return lo, hi


def child_gaps(scale, lo, hi, from_stage, depth):
    """(stage, a, b) of every removed middle inside [lo, hi] down to the
    relative depth, in (stage, position) order."""
    out = []
    frontier = [(lo, hi)]
    for s in range(from_stage + 1, from_stage + depth + 1):
        nxt = []
        for clo, chi in frontier:
            a, b = middle_gap(scale, clo, chi, s)
            out.append((s, a, b))
            nxt += [(clo, a), (b, chi)]
        frontier = nxt
    return out
