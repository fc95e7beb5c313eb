import random
from fractions import Fraction

import pytest

import fraction_cantor as ref
from replay_witness import branch_gap_containing, branch_stage_set
from vclab.cantor import FatCantorSet
from vclab.constructible import ConstructibleSet, Interval

F = Fraction


@pytest.fixture(scope="module")
def fc():
    return FatCantorSet()


def stage_measure_oracle(m):
    # independent geometric-series account: stage s removes 2^(s-1) middles
    # of length (4/5) * 4^-s each
    removed = sum(F(2 ** (s - 1)) * F(4, 5) / 4**s for s in range(1, m + 1))
    return 1 - removed


def test_stage_measures_against_series_oracle(fc):
    for m in range(10):
        assert fc.stage_set(m).measure() == stage_measure_oracle(m)
        assert fc.stage_measure(m) == stage_measure_oracle(m)
        assert fc.stage_measure(m) == F(3, 5) + F(2, 5) / 2**m


def test_stage_zero_and_monotonicity(fc):
    assert fc.stage_set(0) == ConstructibleSet.interval(0, 1)
    for m in range(8):
        assert fc.stage_set(m + 1).is_subset(fc.stage_set(m))
        for branch in (0, 1):
            assert branch_stage_set(fc, branch, m).is_subset(branch_stage_set(fc, branch, m + 1))


@pytest.mark.parametrize("scale", ["4/5", "2/3", "7/8", "38/39", "1/3"])
def test_quantitative_regime_identities(scale):
    # the witness engine relies on these without checking them at run time:
    # the limit keeps limit/2^m in each stage-m component of length W_m u_m,
    # and half the difference is 8((2q - p) 2^m - p) units of u_(m+2)
    s = F(scale)
    fc = FatCantorSet(s)
    p, q = s.numerator, s.denominator
    limit = fc.limit_measure()
    assert 2 * limit - 1 == 1 - s > 0
    for m in range(65):
        gap = 2 * limit / 2**m - fc.value(m, fc.width(m))
        assert gap == (1 - s / 2 - s / 2 ** (m + 1)) / 2**m > 0
        assert gap / 2 == fc.value(m + 2, 8 * (((2 * q - p) << m) - p))
        assert fc.stage_measure(m) >= limit


def test_lazy_membership_examples(fc):
    # The reference walk behind the replay oracle.  Out: inside a removed
    # middle or outside [0, 1]; in: a component endpoint.
    scale = fc.removed_scale
    assert ref.descend(scale, F(1, 2), 1)[0] == "gap"
    assert ref.descend(scale, F(0), 1)[0] == "endpoint"
    assert ref.descend(scale, F(1), 1)[0] == "endpoint"
    # gap endpoints persist
    assert ref.descend(scale, F(2, 5), 3)[0] == "endpoint"
    assert ref.descend(scale, F(-1, 7), 1) == ("outside",)


def test_lazy_membership_soundness(fc):
    rng = random.Random("sound")
    deep = fc.stage_set(9)
    for _ in range(300):
        x = F(rng.randrange(0, 1009), 1008)
        kind = ref.descend(fc.removed_scale, x, 3)[0]
        if kind == "endpoint":
            assert deep.contains(x)
        elif kind in ("gap", "outside"):
            assert not deep.contains(x)


def test_addresses_match_materialized():
    # Component b of stage m is the b-th interval of the stage, and the
    # middle it loses at stage m + 1 the b-th removed middle of that stage.
    for scale in (F(4, 5), F(2, 3), F(7, 8), F(38, 39)):
        fc = FatCantorSet(scale)
        for m in range(9):
            comps = fc.stage_components(m)
            middles = [(a, b) for s, a, b in fc.removed_intervals(m + 1) if s == m + 1]
            assert len(comps) == len(middles) == 2**m
            for b in range(2**m):
                left = fc.left(m, b)
                assert (fc.value(m, left), fc.value(m, left + fc.width(m))) == comps[b]
                assert tuple(fc.value(m + 1, v) for v in fc.middle(m + 1, b)) == middles[b]


def test_parity_split(fc):
    # m = 2: branch 0 holds the one stage-1 middle, branch 1 the two stage-2 middles
    v0 = branch_stage_set(fc, 0, 2)
    v1 = branch_stage_set(fc, 1, 2)
    assert v0 == ConstructibleSet.interval(F(2, 5), F(3, 5), False, False)
    assert len(v1.intervals) == 2
    for m in range(1, 9):
        a = branch_stage_set(fc, 0, m)
        b = branch_stage_set(fc, 1, m)
        assert a.intersection(b).is_empty
        assert a.measure() + b.measure() == F(2, 5) - F(2, 5) / 2**m
        window = ConstructibleSet.interval(0, 1)
        assert a.union(b) == window.difference(fc.stage_set(m))


def test_branch_membership(fc):
    # inside the stage-1 middle
    assert branch_gap_containing(fc, F(1, 2), 0, 1) == Interval(F(2, 5), F(3, 5), False, False)
    assert branch_gap_containing(fc, F(1, 5), 0, 2) is None  # stage-2 middle belongs to branch 1
    assert branch_gap_containing(fc, F(1, 5), 1, 2) is not None
    assert branch_gap_containing(fc, F(0), 0, 5) is None


def test_child_gaps_edges_persist(fc):
    # The middles of stages 1-3 all have edges that are endpoints of the
    # limit set, by the reference walk.
    for s in range(1, 4):
        for b in range(2 ** (s - 1)):
            for edge in fc.middle(s, b):
                assert ref.descend(fc.removed_scale, fc.value(s, edge), s + 4)[0] == "endpoint"
