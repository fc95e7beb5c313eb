from fractions import Fraction

import pytest

from vclab.cantor import FatCantorSet
from vclab.constructible import ConstructibleSet
from vclab.errors import (
    BudgetExceededError,
    InsufficientStageError,
    QuantitativeRegimeError,
)
from vclab.staged import StagedSet
from vclab.witness import (
    BoundaryPair,
    ShatterWitness,
    construct_witness,
    core_overlap,
    density_core_stage,
    steinhaus_neighborhood,
    verify_witness,
)

F = Fraction


@pytest.fixture(scope="module")
def pair():
    return FatCantorSet().boundary_pair()


def toy_pair():
    v0 = StagedSet(lambda m: ConstructibleSet.interval(-1, 0, False, False), "increasing")
    v1 = StagedSet(lambda m: ConstructibleSet.interval(0, 1, False, False), "increasing")
    return BoundaryPair(v0=v0, v1=v1, window=(F(-1), F(1)))


def test_toy_depth_one():
    tp = toy_pair()
    w = construct_witness(tp, 1)
    assert w.translators == (F(0),)
    assert w.points == {"0": F(-1, 2), "1": F(1, 2)}
    assert verify_witness(w, tp).ok


def test_toy_deeper_raises_regime_error():
    with pytest.raises(QuantitativeRegimeError):
        construct_witness(toy_pair(), 2)


def test_missing_hooks_raises():
    fc = FatCantorSet()
    stripped = BoundaryPair(
        v0=fc.branch_staged(0),
        v1=fc.branch_staged(1),
        window=fc.window,
        core=fc.staged(),
        measure_floor=fc.limit_measure(),
    )
    with pytest.raises(InsufficientStageError):
        construct_witness(stripped, 2)


def test_depth_zero_vacuous(pair):
    w = construct_witness(pair, 0)
    assert w.depth == 0 and not w.points and not w.translators
    assert verify_witness(w, pair).ok


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_fat_cantor_roundtrip(pair, depth):
    for seed in (0, 1, 2):
        w = construct_witness(pair, depth, seed=seed)
        assert w.depth == depth
        assert len(w.points) == 2**depth
        assert len(w.conditions) == depth * 2**depth
        assert len(set(w.points.values())) == 2**depth
        result = verify_witness(w, pair)
        assert result.ok, result.failures
        # recorded slacks are positive and honest
        for c in w.conditions:
            assert c.slack > 0
            assert c.lo < c.value < c.hi


def test_serialized_certificate_reverifies_bit_identically(pair):
    w = construct_witness(pair, 3, seed=5)
    text = w.dumps()
    reloaded = ShatterWitness.loads(text)
    assert reloaded.dumps() == text
    assert verify_witness(reloaded, pair).ok


def test_tampered_witness_fails_naming_condition(pair):
    w = construct_witness(pair, 2, seed=4)
    bad = ShatterWitness.loads(w.dumps())
    pattern = sorted(bad.points)[0]
    bad.points[pattern] = bad.points[pattern] + F(1, 9)
    result = verify_witness(bad, pair)
    assert not result.ok
    assert any(f[1] == pattern for f in result.failures)


def test_structural_checks(pair):
    w = construct_witness(pair, 2, seed=4)
    missing = ShatterWitness(2, w.translators, dict(list(w.points.items())[:3]), w.stage_bound)
    assert not verify_witness(missing, pair).ok
    dup = ShatterWitness.loads(w.dumps())
    patterns = sorted(dup.points)
    dup.points[patterns[0]] = dup.points[patterns[1]]
    assert not verify_witness(dup, pair).ok


def test_budget_error_carries_partial(pair):
    with pytest.raises(BudgetExceededError) as err:
        construct_witness(pair, 6, seed=0, stage_budget=12)
    partial = err.value.partial
    assert partial is not None and 0 < partial.depth < 6
    assert verify_witness(partial, pair).ok


def test_depth_monotone_in_stage_budget(pair):
    # a larger stage budget never reduces the achievable depth (same seed)
    def achieved(budget):
        try:
            return construct_witness(pair, 5, seed=3, stage_budget=budget).depth
        except BudgetExceededError as err:
            return err.partial.depth if err.partial else 0

    depths = [achieved(b) for b in (6, 20, 60, 2000)]
    assert depths == sorted(depths)
    assert depths[-1] == 5


def test_density_core_stage(pair):
    approx0, floor0 = density_core_stage(pair, 0)
    assert approx0 == ConstructibleSet.interval(0, 1)
    assert floor0 == F(3, 5)
    approx3, floor3 = density_core_stage(pair, 3)
    assert len(approx3.intervals) == 8
    assert floor3 == F(3, 5) / 8
    # floor is honest: each component really carries at least that much of
    # any deeper stage
    deep = FatCantorSet().stage_set(9)
    for iv in approx3.intervals:
        piece = deep.intersection(ConstructibleSet.from_intervals([iv]))
        assert piece.measure() >= floor3


def test_density_core_requires_positive_floor():
    tp = toy_pair()
    with pytest.raises(InsufficientStageError):
        density_core_stage(tp, 0)


def test_steinhaus_neighborhood_values(pair):
    r, d = steinhaus_neighborhood(pair, 6)
    assert (r, d) == (F(1, 10), F(1, 10))
    exact, floor = core_overlap(pair, 6, 0)
    assert exact == FatCantorSet().stage_measure(6) >= F(3, 5)
    for shift in (F(1, 100), F(-1, 20), F(1, 10)):
        exact, floor = core_overlap(pair, 6, shift)
        assert exact >= floor > 0


def test_steinhaus_quantitative_regime_error():
    fc = FatCantorSet()
    small_floor = BoundaryPair(
        v0=fc.branch_staged(0),
        v1=fc.branch_staged(1),
        window=fc.window,
        core=fc.staged(),
        measure_floor=F(2, 5),
        component_floor=fc.component_limit_measure,
        component_length=fc.component_length,
        child_gaps=fc.child_gaps,
    )
    with pytest.raises(QuantitativeRegimeError):
        steinhaus_neighborhood(small_floor, 3)


def test_validate_stages(pair):
    pair.validate_stages(6)


def test_depth_five_many_seeds(pair):
    for seed in range(8):
        w = construct_witness(pair, 5, seed=seed)
        result = verify_witness(w, pair)
        assert result.ok and len(w.conditions) == 160


def test_depth_six(pair):
    w = construct_witness(pair, 6, seed=1)
    assert verify_witness(w, pair).ok
    assert len(w.conditions) == 6 * 64


def test_pool_depth_guard(pair):
    with pytest.raises(ValueError):
        construct_witness(pair, 2, pool_depth=1)


def test_witness_realizes_all_patterns(pair):
    # the translators cut the witness points into all 2^n branch-membership
    # patterns: point x_p shifted by g_k lands in branch p[k], so the
    # pattern map over the points is a bijection onto {0,1}^n
    fc = FatCantorSet()
    w = construct_witness(pair, 3, seed=6)
    realized = set()
    for pattern, x in w.points.items():
        bits = []
        for g in w.translators:
            verdict = fc.descend(g + x, w.stage_bound)
            assert verdict[0] == "gap"
            bits.append(str(verdict[1] % 2 ^ 1))  # odd stage -> branch 0
        assert "".join(bits) == pattern
        realized.add(pattern)
    assert len(realized) == 8
