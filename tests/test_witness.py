import hashlib
from fractions import Fraction

import pytest

from vclab.cantor import FatCantorSet
from vclab.cli import main
from vclab.constructible import ConstructibleSet
from vclab.errors import BudgetExceededError
from vclab.witness import (
    ShatterWitness,
    construct_witness,
    core_overlap,
    steinhaus_neighborhood,
    verify_witness,
)

F = Fraction


@pytest.fixture(scope="module")
def fc():
    return FatCantorSet()


def test_depth_zero_vacuous(fc):
    w = construct_witness(fc, 0)
    assert w.depth == 0 and not w.points and not w.translators
    assert verify_witness(w, fc).ok


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_fat_cantor_roundtrip(fc, depth):
    for seed in (0, 1, 2):
        w = construct_witness(fc, depth, seed=seed)
        assert w.depth == depth
        assert len(w.points) == 2**depth
        assert len(w.conditions) == depth * 2**depth
        assert len(set(w.points.values())) == 2**depth
        result = verify_witness(w, fc)
        assert result.ok, result.failures
        # recorded slacks are positive and honest
        for c in w.conditions:
            assert c.slack > 0
            assert c.lo < c.value < c.hi


def test_serialized_certificate_reverifies_bit_identically(fc):
    w = construct_witness(fc, 3, seed=5)
    text = w.dumps()
    reloaded = ShatterWitness.loads(text)
    assert reloaded.dumps() == text
    assert verify_witness(reloaded, fc).ok


def test_tampered_witness_fails_naming_condition(fc):
    w = construct_witness(fc, 2, seed=4)
    bad = ShatterWitness.loads(w.dumps())
    pattern = sorted(bad.points)[0]
    bad.points[pattern] = bad.points[pattern] + F(1, 9)
    result = verify_witness(bad, fc)
    assert not result.ok
    assert any(f[1] == pattern for f in result.failures)


def test_structural_checks(fc):
    w = construct_witness(fc, 2, seed=4)
    missing = ShatterWitness(2, w.translators, dict(list(w.points.items())[:3]), w.stage_bound)
    assert not verify_witness(missing, fc).ok
    dup = ShatterWitness.loads(w.dumps())
    patterns = sorted(dup.points)
    dup.points[patterns[0]] = dup.points[patterns[1]]
    assert not verify_witness(dup, fc).ok


def test_budget_error_carries_partial(fc):
    with pytest.raises(BudgetExceededError) as err:
        construct_witness(fc, 6, seed=0, stage_budget=12)
    partial = err.value.partial
    assert partial is not None and 0 < partial.depth < 6
    assert verify_witness(partial, fc).ok


def test_depth_monotone_in_stage_budget(fc):
    # a larger stage budget never reduces the achievable depth (same seed)
    def achieved(budget):
        try:
            return construct_witness(fc, 5, seed=3, stage_budget=budget).depth
        except BudgetExceededError as err:
            return err.partial.depth if err.partial else 0

    depths = [achieved(b) for b in (6, 20, 60, 2000)]
    assert depths == sorted(depths)
    assert depths[-1] == 5


def test_density_core_stage(fc):
    # the stage set over-approximates the limit set, and every stage
    # component keeps the per-component floor of limit measure
    assert fc.boundary_pair() is fc
    assert fc.stage_set(0) == ConstructibleSet.interval(0, 1)
    assert fc.component_limit_measure(0) == F(3, 5)
    approx3, floor3 = fc.stage_set(3), fc.component_limit_measure(3)
    assert len(approx3.intervals) == 8
    assert floor3 == F(3, 5) / 8
    # floor is honest: each component really carries at least that much of
    # any deeper stage
    deep = fc.stage_set(9)
    for iv in approx3.intervals:
        piece = deep.intersection(ConstructibleSet((iv,)))
        assert piece.measure() >= floor3


def test_steinhaus_neighborhood_values(fc):
    r, d = steinhaus_neighborhood(fc)
    assert (r, d) == (F(1, 10), F(1, 10))
    (exact, floor), *shifted = core_overlap(fc, 6, [0, F(1, 100), F(-1, 20), F(1, 10)])
    assert exact == fc.stage_measure(6) >= F(3, 5)
    assert floor == F(1, 5)
    for exact, floor in shifted:
        assert exact >= floor > 0
    with pytest.raises(ValueError):
        core_overlap(fc, -1, [0])


def test_validate_stages(fc):
    # branch stages are open, carry no isolated points, and are disjoint
    for m in range(7):
        s0, s1 = fc.branch_stage_set(0, m), fc.branch_stage_set(1, m)
        for s in (s0, s1):
            assert not s.points
            assert not any(iv.lo_closed or iv.hi_closed for iv in s.intervals)
        assert s0.intersection(s1).is_empty


def test_depth_five_many_seeds(fc):
    for seed in range(8):
        w = construct_witness(fc, 5, seed=seed)
        result = verify_witness(w, fc)
        assert result.ok and len(w.conditions) == 160


def test_depth_six(fc):
    w = construct_witness(fc, 6, seed=1)
    assert verify_witness(w, fc).ok
    assert len(w.conditions) == 6 * 64


def test_witness_realizes_all_patterns(fc):
    # the translators cut the witness points into all 2^n branch-membership
    # patterns: point x_p shifted by g_k lands in branch p[k], so the
    # pattern map over the points is a bijection onto {0,1}^n
    w = construct_witness(fc, 3, seed=6)
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


@pytest.mark.parametrize(
    "argv, code, sha256",
    [
        (["--depth", "6", "--seed", "0"], 0,
         "c91a85de6370135bb5fb5bc22721ee20cac240f28146905366f19aecea87506c"),
        (["--depth", "5", "--seed", "3", "--removed-scale", "38/39"], 0,
         "5f8d1a097e6f1fbcb71e10cb0d3a858bbbd31e41d24f8688aff3ac343451a383"),
        (["--depth", "6", "--stage-budget", "40"], 3,
         "e1c414cfbb411eb7716eb7fb2dd2791a7ef626fdb2fae4cda9e71785bafa6089"),
    ],
    ids=["depth-6", "depth-5-scale-38/39", "partial-stage-budget-40"],
)
def test_witness_artifact_bytes_are_pinned(tmp_path, argv, code, sha256):
    # Digests recorded from earlier commits: a change to the construction
    # that moves any byte of these certificates shows here.
    out = tmp_path / "witness.json"
    assert main(["witness", *argv, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
