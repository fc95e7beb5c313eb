"""Differential tests: the integer-lattice walk of vclab.cantor against the
plain Fraction reference walk in fraction_cantor.py, on even and odd
denominators of the removal scale, down to stage 310."""

import random
from fractions import Fraction

import pytest

import fraction_cantor as ref
from vclab.cantor import FatCantorSet, branch_of_stage
from vclab.witness import construct_witness

F = Fraction
SCALES = [F(4, 5), F(2, 3), F(7, 8), F(38, 39)]
DEEP = 300
MARKS = (0, 1, 2, 3, 97, DEEP - 1, DEEP)


def on_lattice(value, scale, stage):
    return (value * scale.denominator * 2 ** (2 * stage + 1)).denominator == 1


def deep_chain(scale, seed):
    """Components and removed middles along one random branch of the
    reference construction: {stage: ((lo, hi), (a, b))} at the marked stages."""
    rng = random.Random(f"chain/{scale}/{seed}")
    lo, hi = ref.WINDOW
    out = {}
    for s in range(1, DEEP + 2):
        a, b = ref.middle_gap(scale, lo, hi, s)
        if s - 1 in MARKS:
            out[s - 1] = ((lo, hi), (a, b))
        lo, hi = (lo, a) if rng.randrange(2) else (b, hi)
    return out


def probe_points(scale):
    q = scale.denominator
    pts = []
    for (lo, hi), (a, b) in deep_chain(scale, 0).values():
        pts += [lo, hi, a, b, (a + b) / 2, (2 * lo + hi) / 3]
    w = construct_witness(FatCantorSet(scale).boundary_pair(), 4, seed=3)
    pts += [g + x for x in w.points.values() for g in w.translators]
    pts += [F(-1, 3), F(8, 7), F(-1, 10**30), 1 + F(1, q * 2**(2 * DEEP + 1))]
    coprime = [p for p in (3, 7, 11, 13, 101, 1009) if q % p]
    pts += [F(k, p) for p in coprime for k in (1, p // 2, p - 1)]
    return pts


@pytest.mark.parametrize("scale", SCALES, ids=str)
def test_lattice_lemma(scale):
    fc = FatCantorSet(scale)
    for m in range(8):
        assert all(on_lattice(v, scale, m) for comp in fc.stage_components(m) for v in comp)
    assert all(on_lattice(a, scale, s) and on_lattice(b, scale, s)
               for s, a, b in fc.removed_intervals(7))
    for x in probe_points(scale):
        res = fc.descend(x, DEEP + 10)
        if res[0] != "outside":
            assert on_lattice(res[2], scale, res[1]) and on_lattice(res[3], scale, res[1])
        comp = fc.component_of(x, DEEP)
        if comp is not None:
            assert on_lattice(comp.lo, scale, DEEP) and on_lattice(comp.hi, scale, DEEP)
            assert comp.length == fc.component_length(DEEP)


@pytest.mark.parametrize("scale", SCALES, ids=str)
def test_stages_match_reference(scale):
    fc = FatCantorSet(scale)
    for m in range(8):
        assert fc.stage_components(m) == ref.stage_components(scale, m)
    assert list(fc.removed_intervals(7)) == ref.removed_intervals(scale, 7)


@pytest.mark.parametrize("scale", SCALES, ids=str)
def test_descend_and_component_of_match_reference(scale):
    fc = FatCantorSet(scale)
    for x in probe_points(scale):
        for budget in (0, 1, 5, DEEP, DEEP + 10):
            assert fc.descend(x, budget) == ref.descend(scale, x, budget), (x, budget)
            comp = fc.component_of(x, budget)
            got = None if comp is None else (comp.lo, comp.hi)
            assert got == ref.component_of(scale, x, budget), (x, budget)


@pytest.mark.parametrize("scale", SCALES, ids=str)
def test_child_gaps_match_reference(scale):
    fc = FatCantorSet(scale)
    comps = [(stage, lo, hi) for stage, ((lo, hi), _) in deep_chain(scale, 0).items()]
    comps.append((2, F(1, 3), F(5, 7)))  # off the lattice: scaled, still exact
    for stage, lo, hi in comps:
        got = fc.child_gaps(lo, hi, stage, 3)
        assert [(s, iv.lo, iv.hi) for _, s, iv in got] == ref.child_gaps(scale, lo, hi, stage, 3)
        assert all(branch == branch_of_stage(s) for branch, s, _ in got)
        assert all(not iv.lo_closed and not iv.hi_closed for _, _, iv in got)


def test_gap_that_does_not_fit_raises():
    fc = FatCantorSet()
    with pytest.raises(ValueError, match="does not fit"):
        fc.child_gaps(F(0), F(1, 100), 0, 1)
    with pytest.raises(ValueError):
        ref.middle_gap(fc.removed_scale, F(0), F(1, 100), 1)
