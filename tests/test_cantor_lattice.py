"""Differential tests: the closed-form lattice addresses of vclab.cantor
against the plain Fraction reference walk in fraction_cantor.py, on even and
odd denominators of the removal scale, down to stage 301; and the removed-
middle decode `FatCantorSet.middle_defect` against the Fraction checker's
greedy decode in fraction_witness.py, down to stage 2,557."""

import random
from fractions import Fraction

import pytest

import fraction_cantor as ref
import fraction_witness
from vclab.cantor import FatCantorSet

F = Fraction
SCALES = [F(4, 5), F(2, 3), F(7, 8), F(38, 39)]
DEEP = 300
MARKS = (0, 1, 2, 3, 97, DEEP - 1, DEEP)


def on_lattice(value, scale, stage):
    return (value * scale.denominator * 2 ** (2 * stage + 1)).denominator == 1


def deep_chain(scale, seed):
    """Components and removed middles along one random branch of the
    reference construction: {stage: (address, (lo, hi), (a, b))} at the
    marked stages, where (a, b) is the middle the next stage cuts from
    (lo, hi)."""
    rng = random.Random(f"chain/{scale}/{seed}")
    lo, hi, address = *ref.WINDOW, 0
    out = {}
    for s in range(1, DEEP + 2):
        a, b = ref.middle_gap(scale, lo, hi, s)
        if s - 1 in MARKS:
            out[s - 1] = (address, (lo, hi), (a, b))
        bit = rng.randrange(2)
        lo, hi = (b, hi) if bit else (lo, a)
        address = 2 * address + bit
    return out


def component(fc, stage, address):
    left = fc.left(stage, address)
    return fc.value(stage, left), fc.value(stage, left + fc.width(stage))


@pytest.mark.parametrize("scale", SCALES, ids=str)
def test_lattice_lemma(scale):
    fc = FatCantorSet(scale)
    for m in range(8):
        assert all(on_lattice(v, scale, m) for comp in fc.stage_components(m) for v in comp)
    assert all(on_lattice(a, scale, s) and on_lattice(b, scale, s)
               for s, a, b in fc.removed_intervals(7))
    # The reference's own values, and the address formula, down the chain.
    for stage, (address, (lo, hi), (a, b)) in deep_chain(scale, 0).items():
        assert on_lattice(lo, scale, stage) and on_lattice(hi, scale, stage)
        assert on_lattice(a, scale, stage + 1) and on_lattice(b, scale, stage + 1)
        assert hi - lo == fc.value(stage, fc.width(stage))
        assert component(fc, stage, address) == (lo, hi)
        assert tuple(fc.value(stage + 1, v) for v in fc.middle(stage + 1, address)) == (a, b)


@pytest.mark.parametrize("scale", SCALES, ids=str)
def test_stages_match_reference(scale):
    fc = FatCantorSet(scale)
    for m in range(8):
        assert fc.stage_components(m) == ref.stage_components(scale, m)
    assert list(fc.removed_intervals(7)) == ref.removed_intervals(scale, 7)


@pytest.mark.parametrize("scale", SCALES, ids=str)
def test_point_addresses_match_reference(scale):
    # Each end of a chain component, as (stage, address, end), names its
    # component at shallower and at deeper stages.
    fc = FatCantorSet(scale)
    for stage, (address, (lo, hi), _) in deep_chain(scale, 1).items():
        for right, x in ((False, lo), (True, hi)):
            assert ref.descend(scale, x, DEEP + 10)[0] == "endpoint"
            for m in {0, stage // 2, stage, stage + 1, stage + 2, stage + 9, DEEP + 1}:
                got = component(fc, m, fc.address(stage, address, right, m))
                assert got == ref.component_of(scale, x, m), (stage, right, m)


@pytest.mark.parametrize("scale", SCALES, ids=str)
def test_child_gaps_match_reference(scale):
    # The middles inside a chain component, three stages down, are those the
    # stage-s middles cut from its descendants 2^(s-stage-1) * address + j.
    fc = FatCantorSet(scale)
    for stage, (address, (lo, hi), _) in deep_chain(scale, 0).items():
        got = [(s, *(fc.value(s, v) for v in fc.middle(s, (address << k) + j)))
               for k, s in enumerate(range(stage + 1, stage + 4)) for j in range(2**k)]
        assert got == ref.child_gaps(scale, lo, hi, stage, 3)


# 3p has 2-adic valuation t = 0, 1, 2, 6 and 16: the decode's rounds start at
# bit t, and at t = 16 they leave 16 or 17 address bits with none to fix, so
# the greedy loop must take over.
DECODE_SCALES = [F(7, 8), F(2, 3), F(4, 5), F(64, 65), F(2**16, 2**16 + 1)]
DECODE_STAGES = (17, 33, 173, 1280, 2557)


def defects(fc, stage, lo, hi):
    """The lattice decode's and the Fraction decode's verdicts on (lo, hi),
    given in units of u_s and put on the finer lattice u_s / 12."""
    den = 12 * fc.removed_scale.denominator << 2 * stage + 1
    return (fc.middle_defect(stage, 12 * lo, 12 * hi, den),
            fraction_witness.middle_defect(fc, stage, F(12 * lo, den), F(12 * hi, den)))


def assert_refused(fc, stage, lo, hi):
    mine, oracle = defects(fc, stage, lo, hi)
    assert mine is not None and mine == oracle, (stage, lo, hi)


@pytest.mark.parametrize("scale", DECODE_SCALES, ids=str)
def test_decode_accepts_every_shallow_middle(scale):
    fc = FatCantorSet(scale)
    for s in range(1, 11):
        for b in range(1 << (s - 1)):
            lo, hi = fc.middle(s, b)
            assert defects(fc, s, lo, hi) == (None, None), (s, b)
            for shift in (1, -1, 4, -4):
                assert_refused(fc, s, lo + shift, hi + shift)
        assert_refused(fc, s, lo, hi + 1)
        assert_refused(fc, s, *fc.middle(s, 1 << (s - 1)))
    assert_refused(fc, 0, *fc.middle(1, 0))


@pytest.mark.parametrize("scale", DECODE_SCALES, ids=str)
def test_decode_matches_the_fraction_decode_deep(scale):
    # A shift of 4 * 2^(t+2h) units of u_s moves L by 2^(t+2h), for the h of
    # the decode's first round: that round reads the true low bits, and only
    # a later round or the greedy tail refuses it.
    fc = FatCantorSet(scale)
    t = (3 * scale.numerator & -3 * scale.numerator).bit_length() - 1
    rng = random.Random(f"decode/{scale}")
    for s in DECODE_STAGES:
        n = s - 1
        later = 4 << t + 2 * ((n - t) // 2)
        for b in (0, (1 << n) - 1, *(rng.randrange(1 << n) for _ in range(3))):
            lo, hi = fc.middle(s, b)
            assert defects(fc, s, lo, hi) == (None, None), (s, b)
            for shift in (1, -1, 4, -4, later, -later):
                assert_refused(fc, s, lo + shift, hi + shift)
        assert_refused(fc, s, *fc.middle(s, 1 << n))
