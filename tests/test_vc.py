import random
from fractions import Fraction

import pytest

from vclab.cantor import FatCantorSet
from vclab.constructible import ConstructibleSet, parse_set
from vclab.counterexample import counterexample_points
from vclab.errors import BudgetExceededError
from vclab.groups import CyclicGroup
from vclab.vc import (
    SetSystem,
    ShatterReport,
    dual_vc_dimension,
    sauer_shelah_table,
    translate_vc_dimension,
    vc_dimension,
    vc_dimension_naive,
)

F = Fraction


def powerset_system(labels):
    sets = []
    for mask in range(2 ** len(labels)):
        sets.append([l for i, l in enumerate(labels) if mask >> i & 1])
    return SetSystem.from_sets(labels, sets)


def random_system(rng, max_ground=10, max_rows=24):
    n = rng.randrange(3, max_ground + 1)
    rows = [
        frozenset(v for v in range(n) if rng.random() < rng.choice((0.3, 0.5, 0.7)))
        for _ in range(rng.randrange(1, max_rows))
    ]
    return SetSystem.from_sets(tuple(range(n)), rows)


def test_vc_dimension_examples():
    only_empty = SetSystem.from_sets(("a", "b"), [()])
    assert vc_dimension(only_empty)[0] == 0
    assert vc_dimension(powerset_system(("a", "b")))[0] == 2
    arc = SetSystem.from_translates(CyclicGroup(12), range(3))
    d, rep = vc_dimension(arc)
    assert d == 2
    assert rep.shattered and rep.verify(arc)
    assert vc_dimension_naive(arc) == 2


def test_vc_matches_naive_oracle_randomized():
    rng = random.Random("oracle")
    for _ in range(60):
        system = random_system(rng, max_ground=8)
        d, rep = vc_dimension(system)
        assert d == vc_dimension_naive(system)
        assert rep.verify(system)


def test_vc_monotone_under_subfamilies():
    rng = random.Random("mono")
    for _ in range(40):
        system = random_system(rng, max_ground=8)
        d, _ = vc_dimension(system)
        keep = [
            frozenset(g for j, g in enumerate(system.ground) if row >> j & 1)
            for row in system.rows
            if rng.random() < 0.6
        ]
        if not keep:
            continue
        sub = SetSystem.from_sets(system.ground, keep)
        assert vc_dimension(sub)[0] <= d


def test_vc_budget_error_carries_lower_bound():
    # The error carries the last complete level and the witness of its first
    # tuple, at each budget.
    system = powerset_system(tuple(range(8)))
    with pytest.raises(BudgetExceededError) as err:
        vc_dimension(system, max_checks=2000)
    assert str(err.value) == "vc_dimension budget exceeded at size 1"
    assert err.value.lower_bound == 0
    assert err.value.partial == ShatterReport((), {0: 0})
    with pytest.raises(BudgetExceededError) as err:
        vc_dimension(system, max_checks=10_000)
    assert str(err.value) == "vc_dimension budget exceeded at size 3"
    assert err.value.lower_bound == 2
    assert err.value.partial == ShatterReport((0, 1), {0: 0, 1: 1, 2: 2, 3: 3})
    with pytest.raises(BudgetExceededError) as err:
        dual_vc_dimension(system, max_checks=50)
    assert str(err.value) == "dual_vc_dimension budget exceeded at size 1"
    assert err.value.lower_bound == 0 and err.value.partial == ()
    with pytest.raises(BudgetExceededError) as err:
        dual_vc_dimension(system, max_checks=3000)
    assert err.value.lower_bound == 1 and err.value.partial == (1,)
    with pytest.raises(BudgetExceededError) as err:
        dual_vc_dimension(system, max_checks=300_000)
    assert err.value.lower_bound == 2 and err.value.partial == (3, 5)


def test_dual_vc_examples():
    only_empty = SetSystem.from_sets(("a", "b"), [()])
    assert dual_vc_dimension(only_empty)[0] == 0
    # the family of subsets of {a,b,c} over the larger ground {a,b,c,d}:
    # X1={a,b}, X2={b,c} cut all four cells (d falls outside both)
    sets = [[], ["a"], ["b"], ["c"], ["a", "b"], ["b", "c"], ["a", "c"], ["a", "b", "c"]]
    wide = SetSystem.from_sets(("a", "b", "c", "d"), sets)
    n, witness = dual_vc_dimension(wide)
    assert n >= 2
    # over the tight ground {a,b,c} there is no room for 4 nonempty cells
    tight = SetSystem.from_sets(("a", "b", "c"), sets)
    assert dual_vc_dimension(tight)[0] == 1


def test_primal_dual_both_finite():
    # finiteness of one implies finiteness of the other; on explicit finite
    # families both searches must terminate with a value, and the classic
    # bound dual < 2^(primal+1) caps how far they can drift apart
    rng = random.Random("dual")
    for _ in range(30):
        system = random_system(rng, max_ground=7, max_rows=12)
        d, _ = vc_dimension(system)
        n, _ = dual_vc_dimension(system)
        assert 0 <= n < 2 ** (d + 1)
    arc = SetSystem.from_translates(CyclicGroup(12), range(3))
    assert vc_dimension(arc)[0] > 0 and dual_vc_dimension(arc)[0] > 0


def test_sauer_shelah_examples():
    ok, table = sauer_shelah_table(powerset_system(("a", "b")), 2)
    assert ok
    assert table[2] == {"m": 2, "max_projections": 4, "bound": 4}
    singles = SetSystem.from_sets(tuple(range(5)), [(i,) for i in range(5)] + [()])
    d, _ = vc_dimension(singles)
    assert d == 1
    ok, table = sauer_shelah_table(singles, d)
    assert ok
    assert table[5] == {"m": 5, "max_projections": 6, "bound": 6}


def test_sauer_shelah_never_violated_randomized():
    rng = random.Random("sauer")
    for _ in range(30):
        system = random_system(rng, max_ground=7, max_rows=16)
        d, _ = vc_dimension(system)
        ok, _ = sauer_shelah_table(system, d)
        assert ok


def test_translate_vc_quarter_interval():
    report = translate_vc_dimension(ConstructibleSet.interval(0, F(1, 4)), (0, 1))
    assert report.lower_bound == 2
    assert "no shattered 3-point set" in report.upper_bound_status
    # the returned certificate re-verifies: every pattern translator works
    x = ConstructibleSet.interval(0, F(1, 4))
    for pattern, g in report.pattern_translators.items():
        shifted = x.translate(g)
        for bit, p in zip(pattern[::-1], report.points):
            assert shifted.contains(p) == (bit == "1")


def test_translate_vc_window_itself():
    report = translate_vc_dimension(ConstructibleSet.interval(0, 1), (0, 1))
    assert report.lower_bound == 1
    assert "no shattered 2-point set" in report.upper_bound_status


def test_translate_vc_discrete_truncation():
    cx = counterexample_points(FatCantorSet(), 2, 2)
    report = translate_vc_dimension(cx.as_set(), (0, 1), max_size=3, refine=0, grid_max=24)
    assert report.lower_bound == 2
    assert "no shattered 3-point set" in report.upper_bound_status


def test_translate_vc_size_cap_is_not_an_upper_bound():
    # Two intervals shatter three grid points, and the search never tries
    # four, so the status must not claim that no 4-point set exists.
    x = parse_set("[0,1/8] u [1/4,3/8]")
    report = translate_vc_dimension(x, (0, 1), refine=0)
    assert report.lower_bound == 3
    assert report.upper_bound_status == (
        "search stopped at the size cap of 3 points; larger sets were not tried"
    )
    assert "no shattered" not in report.upper_bound_status
    assert len(report.pattern_translators) == 8
    for pattern, g in report.pattern_translators.items():
        shifted = x.translate(g)
        for bit, p in zip(pattern[::-1], report.points):
            assert shifted.contains(p) == (bit == "1")
    capped = translate_vc_dimension(x, (0, 1), max_size=2, refine=0)
    assert capped.lower_bound == 2
    assert "size cap of 2 points" in capped.upper_bound_status
