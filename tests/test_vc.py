import random
from fractions import Fraction
from itertools import combinations

import pytest

import generic_vc
import vclab.vc
from fraction_translate import points_shattered_by_translates
from vclab.border import random_constructible
from vclab.cantor import FatCantorSet
from vclab.constructible import ConstructibleSet, parse_set
from vclab.counterexample import counterexample_points
from vclab.errors import BudgetExceededError
from vclab.groups import CyclicGroup
from vclab.vc import (
    SetSystem,
    ShatterReport,
    _read_translators,
    _signature_ranges,
    _translator_keys,
    interesting_grid,
    sauer_shelah_table,
    translate_vc_dimension,
    vc_and_dual_dimension,
    vc_dimension,
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
    assert generic_vc.vc_dimension_naive(arc) == 2


def test_verify_refuses_a_row_that_does_not_cut_its_pattern():
    # Each witness row is re-checked point by point: a row moved to another
    # pattern fails, also when it cuts that pattern on all but the last
    # point, while a pattern without a witness claims nothing.
    arc = SetSystem.from_translates(CyclicGroup(12), range(3))
    _, rep = vc_dimension(arc)
    w = rep.witnesses
    assert len(rep.points) == 2 and rep.verify(arc)
    assert not ShatterReport(rep.points, {**w, 0b01: w[0b10]}).verify(arc)
    assert not ShatterReport(rep.points, {**w, 0b11: w[0b01]}).verify(arc)
    assert ShatterReport(rep.points, {**w, 0b11: None}).verify(arc)


def test_vc_matches_naive_oracle_randomized():
    rng = random.Random("oracle")
    for _ in range(60):
        system = random_system(rng, max_ground=8)
        d, rep = vc_dimension(system)
        assert d == generic_vc.vc_dimension_naive(system)
        assert rep.verify(system)
        assert (d, rep) == generic_vc.vc_dimension(system)


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
    # tuple, at each budget.  The budgets count tuples: 8 points, then their
    # 28 pairs.
    system = powerset_system(tuple(range(8)))
    with pytest.raises(BudgetExceededError) as err:
        vc_dimension(system, max_tries=7)
    assert str(err.value) == "vc_dimension budget exceeded at size 1"
    assert err.value.lower_bound == 0
    assert err.value.partial == ShatterReport((), {0: 0})
    with pytest.raises(BudgetExceededError) as err:
        vc_dimension(system, max_tries=39)
    assert str(err.value) == "vc_dimension budget exceeded at size 3"
    assert err.value.lower_bound == 2
    assert err.value.partial == ShatterReport((0, 1), {0: 0, 1: 1, 2: 2, 3: 3})


def cyclic_translate(model, base, g):
    """The translate g + base in Z_N."""
    return frozenset((g + v) % model.n for v in base)


def random_translate_base(rng):
    """A seeded (N, base) with N < 30: a singleton, the whole group, a base of
    period p dividing N, or any base.  Two draws in three take N < 20, and
    above N = 14 a period holds at most 5 points, so the generic oracle stays
    quick."""
    n = rng.randrange(1, rng.choice((20, 20, 30)))
    kind = rng.random()
    if kind < 0.1:
        return n, [rng.randrange(n)]
    if kind < 0.2:
        return n, list(range(n))
    p = rng.choice([p for p in range(2, n + 1) if n % p == 0] or [n]) if kind < 0.45 else n
    pattern = rng.sample(range(p), rng.randint(1, p if n <= 14 else min(p, 5)))
    return n, [v + j * p for v in pattern for j in range(n // p)]


def test_cyclic_search_matches_generic_oracle():
    # The search gives the row-scan searches' results, dimension and report
    # alike: on translate families, on copies of them with string labels,
    # and on rotation-invariant families of two orbits, which are searched
    # as explicit families.  On translate families the dual rows read off
    # its last level are the row-scan dual search's.
    rng = random.Random("cyclic-oracle")
    dims, periodic, two_orbit = set(), 0, 0
    for i in range(1000):
        if i % 4 == 3:
            # Two orbits hold up to 2N rows, so N stays small for the oracle.
            model = CyclicGroup(rng.randrange(2, 10))
            bases = [rng.sample(range(model.n), rng.randint(1, model.n)) for _ in range(2)]
            single = len(SetSystem.from_translates(model, bases[0]))
            system = SetSystem.from_sets(
                range(model.n), (cyclic_translate(model, b, g) for b in bases for g in range(model.n))
            )
            two_orbit += len(system) > single
            assert (system._orbit_base is None) == (len(system) > single)
        else:
            n, base = random_translate_base(rng)
            model = CyclicGroup(n)
            system = SetSystem.from_translates(model, base)
            assert system == SetSystem.from_sets(
                range(model.n), (cyclic_translate(model, base, g) for g in range(model.n))
            )
            if i % 4 == 2:
                labels = [f"p{v}" for v in range(model.n)]
                system = SetSystem.from_sets(
                    labels, ([labels[v] for v in cyclic_translate(model, base, g)] for g in range(model.n))
                )
            assert system._orbit_base is not None
            d, report, dual_rows = vc_and_dual_dimension(system)
            assert (d, dual_rows) == generic_vc.dual_vc_dimension(system)
        d, report = vc_dimension(system)
        assert (d, report) == generic_vc.vc_dimension(system)
        if i % 4 != 3:
            dims.add(d)
            periodic += 1 < len(system) < model.n
    assert dims == {0, 1, 2, 3} and periodic > 50 and two_orbit > 150


def test_translate_family_dual_vc_dimension_equals_vc_dimension():
    # The dual of {g + X} is the family of translates of -X, which x -> -x
    # carries onto {g + X} (proof in `vc_and_dual_dimension`).  Below N = 25
    # the row-scan dual search, which takes seconds a base beyond, confirms
    # both the dimension and the rows read off the search.  Half the bases
    # come from random_translate_base, with its singletons, whole groups and
    # periodic bases; half are any base of Z_N for N < 40.
    rng = random.Random("dual-equals-primal")
    dims, periodic, scanned = set(), 0, 0
    for i in range(400):
        if i % 2:
            n, base = random_translate_base(rng)
        else:
            n = rng.randrange(1, 40)
            base = rng.sample(range(n), rng.randint(1, n))
        system = SetSystem.from_translates(CyclicGroup(n), base)
        d, report, dual_rows = vc_and_dual_dimension(system)
        assert (d, report) == vc_dimension(system)
        if n < 25:
            assert (d, dual_rows) == generic_vc.dual_vc_dimension(system)
            dims.add(d)
            periodic += 1 < len(system) < n
            scanned += 1
    assert dims >= {0, 1, 2, 3, 4} and periodic > 5 and scanned > 250


def test_cyclic_search_budget_error_carries_lower_bound():
    system = SetSystem.from_translates(CyclicGroup(50), range(3))
    with pytest.raises(BudgetExceededError) as err:
        vc_dimension(system, max_tries=10)
    assert str(err.value) == "vc_dimension budget exceeded at size 2"
    assert err.value.lower_bound == 1
    assert err.value.partial == ShatterReport((0,), {0: 1, 1: 0})
    # The dual rows are read off the same search, so they spend no budget of
    # their own: 1 point, 49 pairs and 96 triples through 0 are tried.
    with pytest.raises(BudgetExceededError) as dual_err:
        vc_and_dual_dimension(system, max_tries=10)
    assert (str(dual_err.value), dual_err.value.partial) == (str(err.value), err.value.partial)
    with pytest.raises(BudgetExceededError, match="at size 3"):
        vc_and_dual_dimension(system, max_tries=145)
    assert vc_and_dual_dimension(system, max_tries=146)[0] == vc_dimension(system, max_tries=146)[0] == 2


@pytest.mark.parametrize("system", [
    SetSystem.from_translates(CyclicGroup(6), range(2)),
    SetSystem.from_sets(range(4), [(0,), (1, 2), (0, 3)]),
], ids=["translate", "explicit"])
def test_search_certificate_is_rechecked(monkeypatch, system):
    # A mask test that passes every tuple must not reach the report: the
    # tuple is re-checked by row intersection, and the dual rows read off the
    # level of such tuples by a ground scan.
    monkeypatch.setattr(vclab.vc, "_venn_witness", lambda masks, n: lambda cand: cand)
    with pytest.raises(AssertionError, match="shattered tuple failed independent re-check"):
        vc_dimension(system, max_tries=100)
    if system._orbit_base is None:
        with pytest.raises(ValueError, match="not all translates"):
            vc_and_dual_dimension(system)
    else:
        with pytest.raises(AssertionError, match="dual witness rows failed independent re-check"):
            vc_and_dual_dimension(system, max_tries=100)


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


def test_sauer_shelah_refuses_a_large_ground_set_as_a_value_error():
    # A size refusal with no partial table, so not a spent budget.
    system = SetSystem.from_sets(tuple(range(17)), [(i,) for i in range(17)])
    with pytest.raises(ValueError, match="ground set too large"):
        sauer_shelah_table(system, 1)


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
    report = translate_vc_dimension(cx.as_set(), (0, 1), refine=0, grid_max=24)
    assert report.lower_bound == 2
    assert "no shattered 3-point set" in report.upper_bound_status


def assert_translators_cut_patterns(x, report):
    assert len(report.pattern_translators) == 2 ** report.lower_bound
    for pattern, g in report.pattern_translators.items():
        shifted = x.translate(g)
        for bit, p in zip(pattern[::-1], report.points):
            assert shifted.contains(p) == (bit == "1")


@pytest.mark.parametrize(
    "text, grid",
    [
        ("[0,1/4] u {1/2}", 17),
        ("[0,1/8] u [1/4,3/8]", 25),
        ("[0,1/8] u [1/4,3/8] u [1/2,5/8]", 37),
        ("[0,1/8] u [1/4,3/8] u [1/2,5/8] u [3/4,7/8]", 49),
    ],
)
def test_translate_vc_search_ends_by_itself(text, grid):
    # Three points are shattered and the search tries every 4-point
    # extension, so the status is a search outcome, not a size cap.
    x = parse_set(text)
    report = translate_vc_dimension(x, (0, 1))
    assert report.lower_bound == 3
    assert report.upper_bound_status == f"no shattered 4-point set found among {grid} grid candidates"
    assert_translators_cut_patterns(x, report)


def test_translate_vc_budget_is_not_an_upper_bound():
    # Two intervals shatter three grid points; a budget spent among the
    # 4-point candidates keeps that certificate and claims nothing above it.
    x = parse_set("[0,1/8] u [1/4,3/8]")
    full = translate_vc_dimension(x, (0, 1), refine=0)
    assert full.lower_bound == 3
    with pytest.raises(BudgetExceededError) as err:
        translate_vc_dimension(x, (0, 1), refine=0, max_tries=40)
    assert str(err.value) == "translate_vc_dimension budget exceeded at size 4"
    assert err.value.lower_bound == 3
    partial = err.value.partial
    assert partial.upper_bound_status == (
        "search budget of 40 tries spent at size 4; larger sets were not all tried"
    )
    assert (partial.points, partial.pattern_translators) == (full.points, full.pattern_translators)
    assert_translators_cut_patterns(x, partial)
    with pytest.raises(BudgetExceededError) as err:
        translate_vc_dimension(x, (0, 1), refine=0, max_tries=3)
    assert err.value.lower_bound == 0 and err.value.partial.pattern_translators == {}


def sweep_agrees_with_exact_check(x, points, window, max_k=3):
    # On every tuple of size <= max_k the sweep shatters exactly what the
    # Fraction region check shatters, and reads off the same translators.
    keys, start, end, den = _translator_keys(x, points, window)
    for k in range(1, max_k + 1):
        for cand in combinations(range(len(points)), k):
            tuple_points = tuple(points[j] for j in cand)
            exact = points_shattered_by_translates(x, tuple_points, window)
            ranges = _signature_ranges(keys, start, end, cand)
            if exact is None:
                assert len(ranges) < 2**k, (x, cand)
            else:
                assert _read_translators(x, tuple_points, ranges, den) == exact, (x, cand)


@pytest.mark.parametrize(
    "text",
    [
        "{0} u {1/2}",  # pattern 11 of (0, 1/2) has the one translator 0
        "[0,1/4) u (1/4,1/2]",  # a deleted point: open ends meeting
        "(0,1/4) u {3/8} u [1/2,3/4]",
        "[0,1/3] u {1/2} u (2/3,1)",
        "{0} u {1/4} u {3/4}",
    ],
)
def test_sweep_matches_exact_check_on_edge_cases(text):
    x = parse_set(text)
    window = (F(0), F(1))
    sweep_agrees_with_exact_check(x, interesting_grid(x, window, refine=1, max_points=12), window)


def test_sweep_sees_patterns_with_a_single_translator():
    # On (3/8, 1/2, 5/8) the patterns 010, 101 and 111 are each cut out by
    # one translator ({0}, {1/8}, {3/8}), a key range of a single even key.
    x = parse_set("[0,1/4] u {1/2}")
    points = [F(3, 8), F(1, 2), F(5, 8)]
    keys, start, end, den = _translator_keys(x, points, (F(0), F(1)))
    ranges = _signature_ranges(keys, start, end, (0, 1, 2))
    assert len(ranges) == 8
    translators = _read_translators(x, tuple(points), ranges, den)
    assert (translators[0b010], translators[0b101], translators[0b111]) == (0, F(1, 8), F(3, 8))
    # a window that stops short of 3/8 loses the pattern 111
    keys, start, end, den = _translator_keys(x, points, (F(0), F(3, 8) - F(1, 1000)))
    assert 0b111 not in _signature_ranges(keys, start, end, (0, 1, 2))
    assert len(_signature_ranges(keys, start, end, (0, 1))) == 4


def test_sweep_matches_exact_check_randomized():
    # The Fraction region check is the oracle for the integer sweep and its
    # translators, on seeded random sets, grid points and windows, every
    # tuple up to size 3.
    rng = random.Random("translate-sweep")
    for _ in range(25):
        x = random_constructible(rng, (F(0), F(1)))
        if x.is_empty:
            continue
        lo = F(rng.randrange(-4, 4), 8)
        window = (lo, lo + F(rng.randrange(1, 9), 8))
        points = sorted({F(rng.randrange(0, 36), 24) for _ in range(6)})
        points = sorted(set(points) | set(interesting_grid(x, (F(0), F(1)), refine=0, max_points=6)))
        sweep_agrees_with_exact_check(x, points, window)


def test_corrupted_sweep_range_fails_membership_recheck(monkeypatch):
    # The translators are re-checked by membership, not by the walk that
    # found them: swapping the ranges of the patterns "none" and "all" on the
    # reported tuple makes both translators cut out the wrong points.
    walk = vclab.vc._signature_ranges

    def corrupted(keys, start, end, cand):
        ranges = walk(keys, start, end, cand)
        full = (1 << len(cand)) - 1
        if len(ranges) == full + 1:
            ranges[0], ranges[full] = ranges[full], ranges[0]
        return ranges

    monkeypatch.setattr(vclab.vc, "_signature_ranges", corrupted)
    with pytest.raises(AssertionError, match="failed independent re-check"):
        translate_vc_dimension(ConstructibleSet.interval(0, F(1, 4)), (0, 1))
