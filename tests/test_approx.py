import random
from fractions import Fraction

import pytest

from vclab.approx import (
    FiniteTranslateFamily,
    _circular_arcs,
    covering_check,
    hitting_set_for_translates,
    sample_complexity_sweep,
)
from vclab.errors import HittingSetError, UnsampleableError
from vclab.groups import CyclicGroup

F = Fraction


def hit_oracle(model, base, points, g):
    # independent check that the translate g+X contains one of the points
    translate = {(g + v) % model.n for v in base}
    return any(p % model.n in translate for p in points)


def sup_deviation_naive(family, sample):
    """Independent recount of `FiniteTranslateFamily.sup_deviation`: a
    translate-by-translate membership loop."""
    n = family.model.n
    mu = Fraction(len(family.base), n)
    vals = [p % n for p in sample]
    base = set(family.base)
    best = Fraction(0)
    for g in range(n):
        hits = sum(1 for p in vals if (p - g) % n in base)
        best = max(best, abs(Fraction(hits, len(sample)) - mu))
    return best


def test_trivial_families():
    z = CyclicGroup(100)
    whole = FiniteTranslateFamily(z, range(100))
    assert whole.sup_deviation(z.sample(random.Random(0), 1)) == 0
    # every translate of the empty set is empty, so no sample deviates
    empty = FiniteTranslateFamily(z, [])
    sample = z.sample(random.Random(0), 7)
    assert empty.sup_deviation(sample) == 0 == sup_deviation_naive(empty, sample)


def test_fast_path_matches_naive_recount():
    rng = random.Random("recount")
    for _ in range(8):
        n = rng.randrange(20, 80)
        z = CyclicGroup(n)
        base = [v for v in range(n) if rng.random() < 0.4]
        if not base:
            base = [0]
        fam = FiniteTranslateFamily(z, base)
        sample = [rng.randrange(n) for _ in range(rng.randrange(5, 60))]
        assert fam.sup_deviation(sample) == sup_deviation_naive(fam, sample)


def _recount_case(kind, rng):
    """(n, base, sample) of one seeded oracle case of the given kind."""
    n = 1 if kind == "order-1" else rng.randrange(7, 60)
    sample = [rng.randrange(n) for _ in range(rng.randrange(1, 40))]
    base = [v for v in range(n) if rng.random() < 0.4]
    if kind == "wrap":
        # One arc through n - 1 and 0, which wraps, and at least one more.
        base = [0, 3, n - 1] + [v for v in range(5, n - 2) if rng.random() < 0.5]
    elif kind == "empty":
        base = []
    elif kind == "full":
        base = range(n)
    elif kind == "order-1":
        sample = [rng.randint(-5, 5) for _ in sample]
    elif kind == "out-of-range":
        # Every point moved by a nonzero multiple of n, some below 0, some at or above n.
        sample = [v + n * rng.choice((-3, -1, 1, 2)) for v in sample] + [-1, n]
    elif kind == "repeated":
        sample = sample[:3] * rng.randrange(2, 20) + [sample[0]] * rng.randrange(1, 30)
    return n, base, sample


@pytest.mark.parametrize("kind", ["wrap", "empty", "full", "order-1", "out-of-range", "repeated"])
def test_fast_path_matches_naive_recount_edge_cases(kind):
    rng = random.Random(f"recount/{kind}")
    for _ in range(25):
        n, base, sample = _recount_case(kind, rng)
        fam = FiniteTranslateFamily(CyclicGroup(n), base)
        if kind == "wrap":
            assert len(fam._arcs) > 1 and any(start + length > n for start, length in fam._arcs)
        dev = fam.sup_deviation(sample)
        assert dev == sup_deviation_naive(fam, sample)
        base_set = set(fam.base)
        assert fam.translate_counts(sample) == [
            sum(1 for p in sample if (p - g) % n in base_set) for g in range(n)]
        if kind in ("empty", "full") or n == 1:
            assert dev == 0  # every translate holds no point, or all of them


def test_circular_arcs_are_maximal_and_merge_the_wrap():
    assert _circular_arcs((), 10) == []
    assert _circular_arcs((1, 2, 5), 10) == [(1, 2), (5, 1)]
    assert _circular_arcs((0, 9), 10) == [(9, 2)]
    assert _circular_arcs((0, 1, 8, 9), 10) == [(8, 4)]
    assert _circular_arcs((0, 1, 2), 3) == [(0, 3)]


def test_epsilon_one_always_succeeds_at_one_sample():
    z = CyclicGroup(1000)
    fam = FiniteTranslateFamily(z, range(300))
    row, = sample_complexity_sweep(z, fam, F(1), [1], 20, seed=5).rows
    assert row.successes == 20  # deviation is max(mu, 1-mu) < 1 for a proper arc


def test_sweep_monotone_trend_and_empty():
    z = CyclicGroup(1000)
    fam = FiniteTranslateFamily(z, range(300))
    assert sample_complexity_sweep(z, fam, F(1, 20), [10, 400], 0, seed=1).rows == []
    sweep = sample_complexity_sweep(z, fam, F(1, 20), [10, 400], 25, seed=1)
    rates = [F(r.successes, r.trials) for r in sweep.rows]
    assert rates[0] < rates[1]


def test_sweep_checks_epsilon_and_sample_sizes():
    z = CyclicGroup(50)
    fam = FiniteTranslateFamily(z, range(10))
    for epsilon, schedule in ((F(0), [10]), (F(-1, 2), [10]), (F(1, 5), [10, 0]), (F(1, 5), [-1])):
        with pytest.raises(ValueError):
            sample_complexity_sweep(z, fam, epsilon, schedule, 3)
    for trials in (0, -3):
        sweep = sample_complexity_sweep(z, fam, F(1, 5), [10, 20], trials)
        assert sweep.rows == [] and sweep.smallest_passing is None
    assert [r.trials for r in sample_complexity_sweep(z, fam, F(1, 5), [10, 20], 1).rows] == [1, 1]


def test_sweep_pass_rules_at_their_boundaries():
    # One point against a half of Z_4 deviates by exactly 1/2, which does not pass 1/2.
    z = CyclicGroup(4)
    half = FiniteTranslateFamily(z, [0, 1])
    assert sample_complexity_sweep(z, half, F(1, 2), [1], 5).rows[0].successes == 0
    # Seed 2 passes 92 and then exactly 95 of 100 trials: a rate of exactly 95% passes.
    z = CyclicGroup(30)
    fam = FiniteTranslateFamily(z, range(10))
    sweep = sample_complexity_sweep(z, fam, F(1, 4), [28, 32], 100, seed=2)
    assert [r.successes for r in sweep.rows] == [92, 95] and sweep.smallest_passing == 32
    assert sample_complexity_sweep(z, fam, F(1, 4), [28], 3) == sample_complexity_sweep(
        z, fam, F(1, 4), [28], 3, seed=0)


def test_sweep_finds_passing_n():
    z = CyclicGroup(200)
    fam = FiniteTranslateFamily(z, range(60))
    sweep = sample_complexity_sweep(z, fam, F(1, 8), [50, 200, 800], 20, seed=2)
    assert sweep.smallest_passing is not None
    at = [r.n_samples for r in sweep.rows].index(sweep.smallest_passing)
    rates = [F(r.successes, r.trials) for r in sweep.rows]
    # the first row to reach 95%
    assert rates[at] >= F(19, 20)
    assert all(rate < F(19, 20) for rate in rates[:at])


def test_hitting_set_and_covering():
    z = CyclicGroup(100)
    rng = random.Random("hit")
    points = hitting_set_for_translates(range(20), range(100), z, F(1, 5), rng)
    assert len(points) <= 25
    ok, missed = covering_check(range(20), points, range(100), z)
    assert ok and missed is None
    for g in range(100):
        assert hit_oracle(z, range(20), points, g)


def test_hitting_set_trivial_and_errors():
    z = CyclicGroup(30)
    rng = random.Random(1)
    pts = hitting_set_for_translates(range(30), range(30), z, F(1, 2), rng, n_points=1)
    assert len(pts) == 1
    with pytest.raises(UnsampleableError):
        hitting_set_for_translates([], range(30), z, F(1, 5), rng)
    with pytest.raises(ValueError):
        hitting_set_for_translates([0], range(30), z, F(1, 5), rng)  # measure below floor
    with pytest.raises(HittingSetError) as err:
        hitting_set_for_translates(range(6), range(30), z, F(1, 5), rng, retries=1, n_points=1)
    assert err.value.missed is not None


def test_covering_check_failure_names_translator():
    z = CyclicGroup(10)
    ok, missed = covering_check([0, 1], [], range(10), z)
    assert not ok and missed == 0
    ok, missed = covering_check(range(10), [3], range(10), z)
    assert ok


def test_hitting_covering_equivalence_randomized():
    # covering_check true exactly when every translate is hit, and the missed
    # translator is the first one the independent loop misses; every list is
    # drawn from range(-3n, 3n), so most values are not residues, and may be empty
    rng = random.Random("equiv")
    n = 40
    z = CyclicGroup(n)

    def draw(most):
        return [rng.randrange(-3 * n, 3 * n) for _ in range(rng.randrange(0, most))]

    cases = [([], [], []), ([], [7], draw(40)), (draw(40), [], [-120, 119]), (draw(40), draw(6), [])]
    cases += [(draw(40), draw(6), draw(80)) for _ in range(300)]
    for base, points, translators in cases:
        missed = next((g for g in translators if not hit_oracle(z, base, points, g)), None)
        assert covering_check(base, points, translators, z) == (missed is None, missed)


def test_success_recomputed_independently():
    z = CyclicGroup(500)
    fam = FiniteTranslateFamily(z, range(150))
    sample = z.sample(random.Random("dual-route"), 600)
    assert fam.sup_deviation(sample) == sup_deviation_naive(fam, sample)
