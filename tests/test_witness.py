import dataclasses
import functools
import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

import fraction_cantor
import fraction_witness
import pairwise_overlap
from replay_witness import branch_stage_set, replay_witness
from vclab.cantor import FatCantorSet
from vclab.cli import MAX_STEINHAUS_STAGE, main
from vclab.constructible import ConstructibleSet
from vclab.errors import BudgetExceededError
from vclab.witness import (
    ShatterWitness,
    WitnessCondition,
    construct_witness,
    core_overlap,
    steinhaus_neighborhood,
    verify_witness,
)

F = Fraction
SCALES = [F(4, 5), F(2, 3), F(7, 8), F(38, 39)]


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
    translators, points, conditions = fraction_witness.rationals(w)
    pattern = sorted(points)[0]
    points[pattern] += F(1, 9)
    bad = fraction_witness.from_rationals(w.depth, translators, points, w.stage_bound, conditions)
    assert bad.den % 9 == 0
    result = verify_witness(bad, fc)
    assert not result.ok
    assert any(f[1] == pattern for f in result.failures)


def test_structural_checks(fc):
    w = construct_witness(fc, 2, seed=4)
    missing = ShatterWitness(2, w.den, w.translators, dict(list(w.points.items())[:3]), w.stage_bound)
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
    assert fc.limit_measure() == F(3, 5)
    approx3, floor3 = fc.stage_set(3), fc.limit_measure() / 8
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


# Removal scales p/q in (0, 1) with q < 40, as perfbench's SCALES but also below 1/2.
OVERLAP_SCALES = sorted({F(p, q) for q in range(2, 40) for p in range(1, q)})


def generic_overlap(core, u):
    """|K ∩ (K + u)| through the generic set algebra: the oracle."""
    return core.intersection(core.translate(u)).measure()


def test_core_overlap_matches_generic_set_algebra():
    rng = random.Random("core-overlap")
    for _ in range(160):
        fc = FatCantorSet(rng.choice(OVERLAP_SCALES))
        m = rng.randrange(9)
        q, core = fc.removed_scale.denominator, fc.stage_set(m)
        lefts, w, unit = pairwise_overlap.left_ends(fc, m), fc.width(m), q << (2 * m + 1)
        # Denominators coprime to q, on and off the stage lattice, and unrelated.
        coprime = next(d for d in rng.sample(range(2, 400), 398) if math.gcd(d, q) == 1)
        shifts = [F(rng.randint(-den, den), den) for den in (coprime, unit, 1000, rng.randint(1, 10**6))]
        # Two components that only touch: the offset of a pair is exactly +-W.
        i, j = rng.randrange(len(lefts)), rng.randrange(len(lefts))
        shifts.append(F(lefts[i] - lefts[j] + rng.choice((w, -w)), unit))
        shifts += [-u for u in shifts]
        overlaps = core_overlap(fc, m, [0, 1, -1, F(rng.randint(1, 50), rng.randint(1, 50)) + 1, *shifts])
        base = 2 * fc.limit_measure() - 1
        assert overlaps[0] == (fc.stage_measure(m), base)
        assert [exact for exact, _ in overlaps[1:4]] == [0, 0, 0]
        half = len(shifts) // 2
        for u, (exact, floor), (mirror, _) in zip(shifts, overlaps[4:], overlaps[4 + half:]):
            assert exact == generic_overlap(core, u) == mirror, (fc, m, u)
            assert floor == base - abs(u)


def test_core_overlap_touching_components_add_nothing(fc):
    # At stage 1 the components are [0, W] and [W + 2p, 2W + 2p] on u_1.  A
    # shift by W makes each touch its own translate at one point (offset
    # exactly W), and the first translate overlaps the second component by
    # W - 2p, which is all of the overlap.
    w, p = fc.width(1), fc.removed_scale.numerator
    u = fc.value(1, w)
    exact = [e for e, _ in core_overlap(fc, 1, [u, -u])]
    assert exact == [fc.value(1, w - 2 * p)] * 2 == [generic_overlap(fc.stage_set(1), u)] * 2


def test_core_overlap_matches_pairwise_oracle():
    rng = random.Random("core-overlap-pairwise")
    for _ in range(120):
        fc = FatCantorSet(rng.choice(OVERLAP_SCALES))
        m = rng.randrange(13)
        q, lefts, w = fc.removed_scale.denominator, pairwise_overlap.left_ends(fc, m), fc.width(m)
        unit = q << (2 * m + 1)
        coprime = next(d for d in rng.sample(range(2, 400), 398) if math.gcd(d, q) == 1)
        # On the stage lattice, coprime to q, unrelated up to 10^6, and |u| >= 1.
        shifts = [F(rng.randint(-den, den), den) for den in (unit, coprime, rng.randint(1, 10**6))]
        shifts += [F(rng.randint(0, unit), unit) + rng.randint(1, 2), 1, 0]
        # Pairs of components that only touch (offsets of exactly +-W) or
        # overlap by one lattice unit, among them the first and the last.
        last = len(lefts) - 1
        for i, j in ((0, last), (rng.randint(0, last), rng.randint(0, last))):
            shifts += [F(lefts[i] - lefts[j] + off, unit) for off in (w, -w, w - 1, 1 - w)]
        shifts += [-u for u in shifts]
        assert core_overlap(fc, m, shifts) == pairwise_overlap.core_overlap(fc, m, shifts), (fc, m)


def test_core_overlap_deep_stages_shrink_by_at_most_the_lost_measure():
    # No oracle reaches these stages.  K_(m+1) ⊆ K_m, so the overlap can only
    # shrink from stage m to m + 1, and by at most what K_m \ K_(m+1) and its
    # translate cover: ov_(m+1) <= ov_m <= ov_(m+1) + 2(|K_m| - |K_(m+1)|).
    rng = random.Random("core-overlap-deep")
    for scale in (F(4, 5), rng.choice(OVERLAP_SCALES)):
        fc = FatCantorSet(scale)
        shifts = [F(rng.randint(-1000, 1000), rng.randint(1000, 10**4)) for _ in range(3)]
        rows = [core_overlap(fc, m, shifts) for m in range(MAX_STEINHAUS_STAGE + 2)]
        for m, (here, deeper) in enumerate(zip(rows, rows[1:])):
            lost = 2 * (fc.stage_measure(m) - fc.stage_measure(m + 1))
            for u, (ov, floor), (ov_next, _) in zip(shifts, here, deeper):
                assert ov_next <= ov <= ov_next + lost and ov >= floor, (fc, m, u)


def test_core_overlap_builds_no_set_and_two_fractions_per_shift(monkeypatch):
    fc = FatCantorSet(F(23, 37))

    def refuse(*args, **kwargs):
        raise AssertionError("a set was built")

    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    # No stage set, and no left end read one component at a time either.
    for name in ("stage_set", "stage_components", "left"):
        monkeypatch.setattr(FatCantorSet, name, refuse)
    monkeypatch.setattr(ConstructibleSet, "__init__", refuse)
    shifts = [F(-37, 1000), F(1, 7), 0, F(5, 3)]
    u = shifts[0]
    cases = [[], shifts[:1], shifts, [u, -u, u]]
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    counts, results = [], []
    for case in cases:
        built.clear()
        results.append(core_overlap(fc, 8, case))
        counts.append(len(built))
    # A repeated |u| builds nothing more: -u has the overlap of u.
    assert [n - counts[0] for n in counts] == [0, 2, 2 * len(shifts), 2]
    monkeypatch.undo()
    assert results[2] == [(generic_overlap(fc.stage_set(8), u), 2 * fc.limit_measure() - 1 - abs(u))
                          for u in shifts]
    assert results[3] == results[1] * 3


def test_validate_stages(fc):
    # branch stages are open, carry no isolated points, and are disjoint
    for m in range(7):
        s0, s1 = branch_stage_set(fc, 0, m), branch_stage_set(fc, 1, m)
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
            verdict = fraction_cantor.descend(fc.removed_scale, F(g + x, w.den), w.stage_bound)
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
        # stage bound 637
        (["--depth", "8", "--seed", "0"], 0,
         "87d65e574e3c7452f52758e9b214aa796e40ff13cd9f170356e3342e20c5daf4"),
        # stage bound 380; an even q, so lattice denominators and numerators
        # share extra factors of 2
        (["--depth", "7", "--seed", "3", "--removed-scale", "5/8"], 0,
         "e6c828351e427eaaa36643e518ef55911813ad375be9d0ebfccaaf55f1667c2e"),
    ],
    ids=["depth-6", "depth-5-scale-38/39", "partial-stage-budget-40", "depth-8", "depth-7-scale-5/8"],
)
def test_witness_artifact_bytes_are_pinned(tmp_path, argv, code, sha256):
    # Digests recorded from earlier commits: a change to the construction
    # that moves any byte of these certificates shows here.
    out = tmp_path / "witness.json"
    assert main(["witness", *argv, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# --------------------------------------------------------------------------
# the closed-form checker against the replay, and against mutants


def unit(fc, w, stage):
    """One unit of the stage lattice, 1/(q 2^(2s+1)), as an integer on the
    lattice 1/den of a constructed certificate (den = q 2^(2m+13), m >= stage - 2)."""
    return w.den // (fc.removed_scale.denominator << (2 * stage + 1))


def with_condition(w, index, **fields):
    conditions = list(w.conditions)
    conditions[index] = dataclasses.replace(conditions[index], **fields)
    return dataclasses.replace(w, conditions=tuple(conditions))


@functools.cache
def honest_certificates(scale):
    """Complete certificates of depths 1-6 and partial ones from spent stage
    budgets, three seeds each."""
    fc = FatCantorSet(scale)
    certificates = [construct_witness(fc, d, seed=s) for d in range(1, 7) for s in range(3)]
    for budget in (10, 40):
        for seed in range(3):
            with pytest.raises(BudgetExceededError) as err:
                construct_witness(fc, 6, seed=seed, stage_budget=budget)
            assert err.value.partial.depth >= 1
            certificates.append(err.value.partial)
    return certificates


@pytest.mark.parametrize("scale", SCALES, ids=str)
def test_closed_form_and_replay_accept_the_same_certificates(scale):
    fc = FatCantorSet(scale)
    for w in honest_certificates(scale):
        assert verify_witness(w, fc).ok
        assert replay_witness(w, fc).ok


@pytest.mark.parametrize("scale", SCALES, ids=str)
def test_lattice_and_fraction_checkers_accept_the_same_certificates(scale):
    fc = FatCantorSet(scale)
    for w in honest_certificates(scale):
        assert verify_witness(w, fc).failures == fraction_witness.verify_witness(w, fc).failures == []


@pytest.fixture(scope="module")
def depth_six(fc):
    return construct_witness(fc, 6, seed=0)


def shifted_middle(scale, units):
    """The last condition's middle moved along the stage lattice by `units`,
    with the value still strictly inside and an honest slack."""
    fc = FatCantorSet(scale)
    w = construct_witness(fc, 6, seed=0)
    c = w.conditions[-1]
    u = units * unit(fc, w, c.stage) * (1 if c.value - c.lo > units * unit(fc, w, c.stage) else -1)
    lo, hi = c.lo + u, c.hi + u
    return fc, with_condition(w, -1, lo=lo, hi=hi, slack=min(c.value - lo, hi - c.value))


@pytest.mark.parametrize("scale, units", [(F(4, 5), 1), (F(38, 39), 4)], ids=["one-unit", "four-units"])
def test_shifted_middle_fools_only_the_replay(scale, units):
    # The replay never reads the recorded conditions: moving the last
    # condition's middle along the lattice, with the value still strictly
    # inside and an honest slack, leaves it satisfied.  Four units keep the
    # middle's left end in the form 4L + 2W - p, so only the address decode
    # can tell.
    fc, mutant = shifted_middle(scale, units)
    c = mutant.conditions[-1]
    assert c.lo < c.value < c.hi
    assert replay_witness(mutant, fc).ok
    result = verify_witness(mutant, fc)
    message = f"({F(c.lo, mutant.den)}, {F(c.hi, mutant.den)}) is not a removed middle of stage {c.stage}"
    assert result.failures == [(c.level, c.pattern, message)]


# (field, step): a rational field moves by step lattice units of its stage,
# the stage itself by step.
FIELD_MUTATIONS = [(name, sign) for name in ("value", "lo", "hi", "slack") for sign in (1, -1)]
FIELD_MUTATIONS += [("stage", step) for step in (1, 2, -1, -2)]


@pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("name, step", FIELD_MUTATIONS, ids=[f"{n}{s:+d}" for n, s in FIELD_MUTATIONS])
def test_every_recorded_field_is_checked(fc, depth_six, name, step, index):
    c = depth_six.conditions[index]
    delta = step if name == "stage" else step * unit(fc, depth_six, c.stage)
    mutant = with_condition(depth_six, index, **{name: getattr(c, name) + delta})
    result = verify_witness(mutant, fc)
    assert not result.ok
    assert any(f[:2] in ((c.level, c.pattern), ("structure", "")) for f in result.failures)


def test_condition_count_and_stage_bound_are_checked(fc, depth_six):
    conditions = depth_six.conditions
    mutants = [
        dataclasses.replace(depth_six, conditions=conditions[:-1]),
        dataclasses.replace(depth_six, conditions=conditions + conditions[-1:]),
        dataclasses.replace(depth_six, stage_bound=depth_six.stage_bound - 1),
        dataclasses.replace(depth_six, stage_bound=depth_six.stage_bound + 1),
    ]
    for mutant in mutants:
        result = verify_witness(mutant, fc)
        assert not result.ok and result.failures[0][:2] == ("structure", "")


def depth_one(x0, x1, *conditions):
    """A depth-1 certificate at translator 0 with honest slacks."""
    return fraction_witness.from_rationals(1, (F(0),), {"0": x0, "1": x1}, 2, [
        (0, pattern, x, lo, hi, stage, min(x - lo, hi - x)) for pattern, x, lo, hi, stage in conditions])


# At scale 4/5 the stage-1 middle (2/5, 3/5) feeds branch 0 and the stage-2
# middle (7/40, 9/40) branch 1.
STAGE1, STAGE2 = (F(2, 5), F(3, 5), 1), (F(7, 40), F(9, 40), 2)


def test_wrong_branch_parity_and_boundary_values_are_rejected(fc):
    stage1, stage2 = STAGE1, STAGE2
    honest = depth_one(F(1, 2), F(1, 5), ("0", F(1, 2), *stage1), ("1", F(1, 5), *stage2))
    assert verify_witness(honest, fc).ok and replay_witness(honest, fc).ok
    swapped = depth_one(F(1, 5), F(1, 2), ("0", F(1, 5), *stage2), ("1", F(1, 2), *stage1))
    assert verify_witness(swapped, fc).failures == [
        (0, "0", "stage 2 feeds the other branch"), (0, "1", "stage 1 feeds the other branch")]
    assert not replay_witness(swapped, fc).ok
    edge = depth_one(F(2, 5), F(1, 5), ("0", F(2, 5), *stage1), ("1", F(1, 5), *stage2))
    assert verify_witness(edge, fc).failures == [(0, "0", "2/5 is not strictly inside (2/5, 3/5)")]
    assert not replay_witness(edge, fc).ok


def test_huge_stage_is_rejected_without_building_its_lattice(fc, depth_six):
    # With a matching stage bound the structure holds, so the middle check
    # itself must refuse the stage from the interval's width.
    mutant = dataclasses.replace(with_condition(depth_six, -1, stage=10**9), stage_bound=10**9)
    start = time.perf_counter()
    result = verify_witness(mutant, fc)
    assert time.perf_counter() - start < 1.0
    c, den = depth_six.conditions[-1], depth_six.den
    assert (c.level, c.pattern, f"({F(c.lo, den)}, {F(c.hi, den)}) is not as wide as a stage-1000000000 middle") \
        in result.failures


def test_verify_walks_nothing(fc, monkeypatch):
    # Construction reads positions off the closed-form addresses, and the
    # checker decodes them without the construction's `left` and `middle`.
    def refuse(*args, **kwargs):
        raise AssertionError("the set was walked")

    for name in ("stage_set", "stage_components"):
        monkeypatch.setattr(FatCantorSet, name, refuse)
    w = construct_witness(fc, 5, seed=2)
    for name in ("left", "middle"):
        monkeypatch.setattr(FatCantorSet, name, refuse)
    assert verify_witness(w, fc).ok


# --------------------------------------------------------------------------
# the lattice checker against the Fraction checker


def mutants(fc, w):
    """Every mutant of a scale-4/5 certificate that the tests above build."""
    for index in (0, -1):
        c = w.conditions[index]
        for name, step in FIELD_MUTATIONS:
            delta = step if name == "stage" else step * unit(fc, w, c.stage)
            yield with_condition(w, index, **{name: getattr(c, name) + delta})
    yield from (dataclasses.replace(w, conditions=w.conditions[:-1]),
                dataclasses.replace(w, conditions=w.conditions + w.conditions[-1:]),
                dataclasses.replace(w, stage_bound=w.stage_bound - 1),
                dataclasses.replace(w, stage_bound=w.stage_bound + 1),
                dataclasses.replace(with_condition(w, -1, stage=10**9), stage_bound=10**9),
                ShatterWitness(w.depth, w.den, w.translators, dict(list(w.points.items())[:3]), w.stage_bound))
    patterns = sorted(w.points)
    yield dataclasses.replace(w, points={**w.points, patterns[0]: w.points[patterns[1]]})
    translators, points, conditions = fraction_witness.rationals(w)
    points[patterns[0]] += F(1, 9)
    yield fraction_witness.from_rationals(w.depth, translators, points, w.stage_bound, conditions)
    yield depth_one(F(1, 5), F(1, 2), ("0", F(1, 5), *STAGE2), ("1", F(1, 2), *STAGE1))
    yield depth_one(F(2, 5), F(1, 5), ("0", F(2, 5), *STAGE1), ("1", F(1, 5), *STAGE2))


def test_lattice_and_fraction_checkers_fail_alike_on_every_mutant(fc, depth_six):
    cases = [(fc, w) for w in mutants(fc, depth_six)]
    cases += [shifted_middle(F(4, 5), 1), shifted_middle(F(38, 39), 4)]
    for scale_fc, w in cases:
        failures = verify_witness(w, scale_fc).failures
        assert failures and failures == fraction_witness.verify_witness(w, scale_fc).failures


# A rational field moved off the stage lattice: by a denominator with a
# factor 7, or by a large prime one.
OFF_LATTICE = {"factor-7": F(1, 7 << 90), "prime": F(1, 2**127 - 1)}


@pytest.mark.parametrize("delta", OFF_LATTICE.values(), ids=OFF_LATTICE.keys())
@pytest.mark.parametrize("field", ["translator", "value", "lo", "slack", "middle"])
def test_off_lattice_fields_loaded_from_json_fail_alike(fc, field, delta):
    data = json.loads(construct_witness(fc, 3, seed=5).dumps())
    if field == "translator":
        data["translators"][1] = str(F(data["translators"][1]) + delta)
    for name in {"translator": (), "middle": ("lo", "hi")}.get(field, (field,)):
        data["conditions"][-1][name] = str(F(data["conditions"][-1][name]) + delta)
    mutant = ShatterWitness.loads(json.dumps(data))
    result = verify_witness(mutant, fc)
    assert not result.ok
    assert result.failures == fraction_witness.verify_witness(mutant, fc).failures
    if field == "middle":
        # The width is still exact, so only the lattice read can tell.
        c, den = mutant.conditions[-1], mutant.den
        assert (c.level, c.pattern, f"({F(c.lo, den)}, {F(c.hi, den)}) is not a removed middle of stage {c.stage}") \
            in result.failures


# --------------------------------------------------------------------------
# the writer against the json module


def old_to_json(w):
    """The dict that json.dumps(..., sort_keys=True, indent=2) used to write,
    each field n as str(Fraction(n, den))."""
    def text(n):
        return str(F(n, w.den))

    return {
        "depth": w.depth,
        "stage_bound": w.stage_bound,
        "translators": [text(g) for g in w.translators],
        "points": {p: text(x) for p, x in sorted(w.points.items())},
        "conditions": [
            {"level": c.level, "pattern": c.pattern, "value": text(c.value),
             "lo": text(c.lo), "hi": text(c.hi), "stage": c.stage,
             "slack": text(c.slack)}
            for c in sorted(w.conditions, key=lambda c: (c.level, c.pattern))
        ],
    }


def test_dumps_matches_the_json_module(fc):
    cases = [construct_witness(fc, d, seed=2) for d in range(7)]
    cases.append(ShatterWitness(0, 1, (), {"": 0}, 0, ()))
    # On den = 12: -3/4, 2, -5/3 and conditions with 5, -1/6, 9, -2 and -7/2,
    # -4, 3, 1/2.
    cases.append(ShatterWitness(1, 12, (-9,), {"0": 24, "1": -20}, 7, (
        WitnessCondition(0, "1", 60, -2, 108, 2, -24),
        WitnessCondition(0, "0", -42, -48, 36, 7, 6),
    )))
    quoted = 'a"\u00e9'
    cases.append(ShatterWitness.loads(json.dumps({
        "depth": 1, "stage_bound": 3, "translators": ["1/2"], "points": {quoted: "1", "0": "-2"},
        "conditions": [{"level": 0, "pattern": quoted, "value": "3/2", "lo": "1", "hi": "2",
                        "stage": 3, "slack": "1/2"}],
    })))
    for w in cases:
        assert w.dumps() == json.dumps(old_to_json(w), sort_keys=True, indent=2) + "\n"


# --------------------------------------------------------------------------
# the lowest-terms writer, and no Fraction between construction and the text


def written(den, numerators):
    """The certificate writer's text for each numerator over den, read back
    from a certificate holding them as translators."""
    return json.loads(ShatterWitness(len(numerators), den, tuple(numerators), {}, 0).dumps())["translators"]


def test_writer_gives_the_lowest_terms_of_fraction():
    rng = random.Random("lowest-terms")
    # Level lattices q 2^e for odd and even q, and the off-lattice
    # denominators of the JSON mutants above.
    dens = [q << rng.randrange(13, 400) for q in (1, 2, 3, 5, 8, 12, 37, 38, 39)]
    dens += [7 << 90, 2**127 - 1, 1, 2, 12]
    for den in dens:
        numerators = [0, den, -den, 7 * den, -3 * den, 1, -1]
        numerators += [rng.randint(-den, den) for _ in range(20)]
        # Numerators sharing twos and odd factors with den, and more twos than den has.
        numerators += [sign * rng.randrange(1, 10**6) * f << rng.randrange(0, den.bit_length() + 20)
                       for f in (1, 3, 5, 7, 13, 37) for sign in (1, -1)]
        assert written(den, numerators) == [str(F(n, den)) for n in numerators], den


def test_witness_builds_no_certificate_fraction(tmp_path, monkeypatch):
    # Construction, checking and writing stay on integers: the only Fractions
    # of a witness run are the parsed scale and its copy in FatCantorSet.
    built, new = [], Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    code = main(["witness", "--depth", "6", "--seed", "0", "--removed-scale", "5/8",
                 "--out", str(tmp_path / "w.json")])
    monkeypatch.undo()
    assert code == 0
    assert 1 <= len(built) <= 2 and all(F(*args) == F(5, 8) for args in built), built


def test_depth_eight_artifact_round_trips_through_both_checkers(tmp_path):
    out = tmp_path / "witness.json"
    assert main(["witness", "--depth", "8", "--seed", "0", "--out", str(out)]) == 0
    text = out.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "87d65e574e3c7452f52758e9b214aa796e40ff13cd9f170356e3342e20c5daf4"
    fc = FatCantorSet()
    w = ShatterWitness.loads(text)
    assert w.dumps() == text
    assert verify_witness(w, fc).ok
    assert fraction_witness.verify_witness(w, fc).failures == []
