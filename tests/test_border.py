import random
from collections import defaultdict
from fractions import Fraction

import pytest

import fraction_border
from vclab.border import (
    border_decay_experiment,
    boundary_point_count,
    density_report,
    r_border_measure,
    random_closed_union,
    random_constructible,
)
from vclab.cantor import FatCantorSet
from vclab.constructible import ConstructibleSet, parse_set
from vclab.counterexample import counterexample_points, matched_budget_points

F = Fraction
BIG_WINDOW = (F(-1), F(2))


def test_r_border_closed_interval():
    # two boundary points, each contributing a 2r interval
    a = ConstructibleSet.interval(0, F(1, 2))
    assert r_border_measure(a, F(1, 100), BIG_WINDOW) == F(1, 25)


def test_r_border_window_itself():
    a = ConstructibleSet.interval(0, 1)
    # as the whole window: complement empty, nothing is near both sides
    assert r_border_measure(a, F(1, 100), (F(0), F(1))) == 0
    # inside a larger window: supported only at the two ends
    assert r_border_measure(a, F(1, 100), BIG_WINDOW) == 4 * F(1, 100)


def test_r_border_fat_cantor_stage():
    fc = FatCantorSet()
    k4 = fc.stage_set(4)
    # 32 endpoints, each contributing 2r once 2r is below the smallest gap
    # width (4/5)*4^-4 = 1/320
    for j in (10, 11, 12):
        r = F(1, 2**j)
        assert r_border_measure(k4, r, BIG_WINDOW) == 64 * r
    single = ConstructibleSet.interval(F(1, 4), F(1, 2))
    assert r_border_measure(single, F(1, 64), BIG_WINDOW) == 4 * F(1, 64)


def test_r_border_requires_positive_radius():
    with pytest.raises(ValueError):
        r_border_measure(ConstructibleSet.interval(0, 1), 0, BIG_WINDOW)


def test_r_border_matches_fraction_oracle():
    # Sets with open ends and isolated points on [-2, 2], so most reach past
    # the window; interval windows on and off the sets' grid, and multi-piece
    # ones; the empty set, the whole window and a superset of it; radii from
    # 2^-64 to 2^64, and multiples of the grid step, where grown pieces touch.
    rng = random.Random("border-oracle")
    grid = (F(-2), F(2))
    for case in range(3000):
        if case % 3:
            window = [(F(0), F(1)), (F(-1, 3), F(5, 7))][case // 3 % 2]
            win = ConstructibleSet.interval(*window)
        else:
            window = win = random_constructible(rng, grid)
        a = random_constructible(rng, grid)
        a = [ConstructibleSet.empty(), win, win.union(a), a, a][case % 5]
        r = F(2) ** rng.randrange(-64, 65) if case % 2 else F(rng.randrange(1, 200), 2520)
        assert r_border_measure(a, r, window) == fraction_border.r_border_measure(a, r, window), (a, r, window)


def test_r_border_is_at_most_2r_per_boundary_point():
    # The module docstring's bound for closed intervals inside an interval
    # window, met once 2r is at most every gap between the ends of A and W.
    rng = random.Random("border-2r")
    top = F(0)
    for _ in range(400):
        window = (F(rng.randrange(-9, 0), 7), F(rng.randrange(1, 10), 3))
        a = random_closed_union(rng, window)
        ends = [window[0], *(v for piece in a.pieces for v in piece[:2]), window[1]]
        gap = min(y - x for x, y in zip(ends, ends[1:]))
        bound_per_r = 2 * boundary_point_count(a)
        for r in (gap / 2, gap / 3, gap, 2 * gap, F(2) ** rng.randrange(-64, 8)):
            value = r_border_measure(a, r, window)
            assert value <= bound_per_r * r
            if 2 * r <= gap:
                assert value == bound_per_r * r
            top = max(top, value / (bound_per_r * r))
    assert top == 1


def test_counterexample_r_border_floor():
    fc = FatCantorSet()
    for m in (2, 3, 4):
        cx = matched_budget_points(fc, m)
        value = r_border_measure(cx.as_set(), F(1, 2**m), (F(0), F(1)))
        assert value >= fc.stage_measure(m) >= F(3, 5)


def test_decay_experiment_bound_and_monotonicity():
    rng = random.Random("decay")
    sets = [random_closed_union(rng, (F(0), F(1))) for _ in range(6)]
    radii = [F(1, 2**j) for j in range(4, 11)]
    rows = border_decay_experiment(sets, radii, BIG_WINDOW)
    assert all(row.within_bound for row in rows)
    per_set = defaultdict(list)
    for row in rows:
        per_set[row.set_id].append(row.value)
    for values in per_set.values():
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] <= values[0]


def test_boundary_point_count():
    assert boundary_point_count(parse_set("[0,1/2] u {2}")) == 3
    assert boundary_point_count(ConstructibleSet.empty()) == 0


def test_density_report_clean_set():
    report = density_report(parse_set("[0,1/2] u (3/4,1)"))
    assert report.hypothesis_set and report.hypothesis_complement
    assert report.border_measure == 0
    assert report.identity_holds and report.consistent


def test_density_report_discrete_truncation():
    cx = counterexample_points(FatCantorSet(), 2, 2)
    report = density_report(cx.as_set(), (F(0), F(1)))
    assert not report.hypothesis_set  # discrete: every point fails
    assert report.consistent  # theorem inapplicable, vacuously consistent


def test_density_report_empty_set():
    report = density_report(ConstructibleSet.empty())
    assert report.hypothesis_set and report.hypothesis_complement
    assert report.border_measure == 0 and report.consistent


def test_density_report_isolated_point_failure():
    report = density_report(parse_set("[0,1] u {2}"))
    assert not report.hypothesis_set
    assert report.consistent


def test_density_reports_randomized():
    rng = random.Random("reports")
    for _ in range(200):
        x = random_constructible(rng, (F(0), F(1)))
        report = density_report(x, (F(0), F(1)))
        assert report.consistent
        if report.hypothesis_set and report.hypothesis_complement:
            assert report.border_measure == 0
            assert report.identity_holds


def test_random_closed_union_is_closed_and_inside():
    rng = random.Random("gen")
    for _ in range(50):
        s = random_closed_union(rng, (F(0), F(1)))
        assert not s.points
        assert all(iv.lo_closed and iv.hi_closed for iv in s.intervals)
        hull = s.hull()
        assert F(0) < hull[0] and hull[1] < F(1)
