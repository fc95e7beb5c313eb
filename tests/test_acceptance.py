"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and asserting the criterion at its stated tolerance and runtime budget.

Expected values tagged as derived were computed by the independent oracles
embedded here (geometric series for stage measures, brute-force interval
overlap, no-pruning VC search, naive membership recounts) before being
asserted against the package's own computations.
"""

import json
import random
import time
from collections import defaultdict
from fractions import Fraction
from itertools import combinations

from generic_vc import vc_dimension_naive
from vclab.approx import FiniteTranslateFamily, covering_check, hitting_set_for_translates, sample_complexity_sweep
from vclab.border import border_decay_experiment, density_report, random_closed_union, random_constructible, r_border_measure
from vclab.cantor import FatCantorSet
from vclab.cli import main
from vclab.counterexample import (
    counterexample_points,
    matched_budget_points,
    no_shatter3_check,
    pair_translate_count,
    verify_difference_injective,
)
from vclab.groups import CyclicGroup
from vclab.vc import SetSystem, sauer_shelah_table, vc_dimension
from vclab.witness import ShatterWitness, construct_witness, verify_witness

F = Fraction


def conclude(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_stage_measures_exact():
    start = time.perf_counter()
    fc = FatCantorSet()
    ok = True
    for m in range(13):
        # independent oracle: subtract the removed geometric series directly
        removed = sum(F(2 ** (s - 1)) * F(4, 5) / F(4**s) for s in range(1, m + 1))
        oracle = 1 - removed
        built = fc.stage_set(m).measure()
        closed_form = F(3, 5) + F(2, 5) / 2**m
        ok &= built == oracle == closed_form
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    conclude(1, ok, f"mu(K_m) = 3/5 + (2/5)2^-m exactly for m <= 12 in {elapsed:.3f}s")


def test_criterion_02_witness_depth_five(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "w5.json"
    code = main(["witness", "--depth", "5", "--seed", "0", "--out", str(out)])
    pair = FatCantorSet().boundary_pair()
    witness = ShatterWitness.loads(out.read_text())
    result = verify_witness(witness, pair)
    elapsed = time.perf_counter() - start
    ok = code == 0 and result.ok and len(witness.conditions) == 160 and elapsed < 60.0
    for depth in (1, 2, 3, 4):
        for seed in range(10):
            w = construct_witness(pair, depth, seed=seed)
            ok &= verify_witness(w, pair).ok and len(w.conditions) == depth * 2**depth
    conclude(2, ok, f"depth-5 witness verified (160 conditions) in {elapsed:.2f}s; depths 1-4 x 10 seeds pass")


def test_criterion_03_quantitative_steinhaus():
    fc = FatCantorSet()
    k6 = fc.stage_set(6)
    comps = [(iv.lo, iv.hi) for iv in k6.intervals]

    def overlap_oracle(shift):
        # independent brute-force interval overlap
        total = F(0)
        for alo, ahi in comps:
            for blo, bhi in comps:
                lo, hi = max(alo, blo + shift), min(ahi, bhi + shift)
                if hi > lo:
                    total += hi - lo
        return total

    ok = True
    for u in (F(1, 100), F(-1, 100), F(1, 20), F(-1, 20), F(1, 10), F(-1, 10)):
        exact = k6.intersection(k6.translate(u)).measure()
        ok &= exact == overlap_oracle(u)
        ok &= exact >= F(1, 10)
        # stated theoretical floor
        ok &= exact >= F(1, 5) - abs(u) - F(4, 5) / 2**6
    conclude(3, ok, "mu(K_6 cap (K_6+u)) >= 1/10 exactly for all u in {±1/100, ±1/20, ±1/10}")


def test_criterion_04_epsilon_approximation_sweep():
    start = time.perf_counter()
    model = CyclicGroup(1000)
    family = FiniteTranslateFamily(model, range(300))
    sweep = sample_complexity_sweep(
        model, family, F(1, 20), [125, 250, 500, 1000, 2000], trials=100, seed=0
    )
    elapsed = time.perf_counter() - start
    passing = [r for r in sweep.rows if r.n_samples <= 2000 and r.successes >= 95]
    ok = bool(passing) and elapsed < 30.0
    ok &= all(r.max_deviation < F(1, 20) for r in sweep.rows if r.successes == r.trials)
    best = passing[0].n_samples if passing else None
    conclude(4, ok, f"N={best} reaches >=95/100 exact sup-deviation < 1/20 over 1000 translates in {elapsed:.1f}s")


def test_criterion_05_vc_oracle_agreement():
    rng = random.Random("acceptance-vc")
    ok = True
    for _ in range(200):
        n = rng.randrange(4, 11)
        rows = [
            frozenset(v for v in range(n) if rng.random() < rng.choice((0.3, 0.5, 0.7)))
            for _ in range(rng.randrange(1, 20))
        ]
        system = SetSystem.from_sets(tuple(range(n)), rows)
        d, report = vc_dimension(system)
        ok &= d == vc_dimension_naive(system)
        ok &= report.verify(system)
        table_ok, _ = sauer_shelah_table(system, d)
        ok &= table_ok
    arc = SetSystem.from_translates(CyclicGroup(12), range(3))
    ok &= vc_dimension(arc)[0] == 2
    conclude(5, ok, "vc_dimension matches the naive oracle on 200 random families; Sauer-Shelah clean; Z_12 arc-3 = 2")


def test_criterion_06_hitting_set_covering():
    model = CyclicGroup(100)
    rng = random.Random("acceptance-hit")
    points = hitting_set_for_translates(
        range(20), range(100), model, F(1, 5), rng, retries=20
    )
    covered, missed = covering_check(range(20), points, range(100), model)
    # independent recount of the covering
    base = set(range(20))
    independent = all(
        any((p - g) % 100 in base for p in points) for g in range(100)
    )
    ok = len(points) <= 25 and covered and independent and missed is None
    conclude(6, ok, f"hitting set of size {len(points)} <= 25 found; covering check exact")


def test_criterion_07_border_dichotomy():
    rng = random.Random("acceptance-border")
    sets = [random_closed_union(rng, (F(0), F(1))) for _ in range(20)]
    radii = [F(1, 2**j) for j in range(4, 13)]
    rows = border_decay_experiment(sets, radii, (F(-1), F(2)))
    ok = all(row.within_bound for row in rows)
    per_set = defaultdict(list)
    for row in rows:
        per_set[row.set_id].append(row.value)
    for values in per_set.values():
        ok &= all(a >= b for a, b in zip(values, values[1:]))
        ok &= values[-1] <= values[0]
    fc = FatCantorSet()
    floors = []
    for m in range(1, 9):
        cx = matched_budget_points(fc, m)
        value = r_border_measure(cx.as_set(), F(1, 2**m), (F(0), F(1)))
        floors.append(value >= F(3, 5))
    ok &= all(floors)
    conclude(7, ok, "20 random closed sets decay within 4r x boundary count; counterexample stays >= 3/5 for m <= 8")


def test_criterion_08_counterexample_combinatorics():
    fc = FatCantorSet()
    # 28 intervals x 7 points = 196 <= 200 points
    cx = counterexample_points(fc, 28, 3)
    ok = len(cx.points) <= 200
    ok &= verify_difference_injective(cx.points)
    pts = cx.point_set()
    for p, q in combinations(cx.points, 2):
        if pair_translate_count(pts, p, q) > 1:
            ok = False
            break
    report = no_shatter3_check(cx, 1000, seed=0)
    ok &= report.triples_checked >= 1000
    ok &= not report.full_shatter_found and report.max_patterns < 8
    conclude(8, ok, f"{len(cx.points)} points difference-injective; pair uniqueness exhaustive; max {report.max_patterns}/8 patterns over 1000 triples")


def test_criterion_09_density_consistency():
    rng = random.Random("acceptance-density")
    ok = True
    for _ in range(500):
        x = random_constructible(rng, (F(0), F(1)))
        report = density_report(x, (F(0), F(1)))
        ok &= report.consistent
        if report.hypothesis_set and report.hypothesis_complement:
            ok &= report.border_measure == 0 and report.identity_holds
    truncation = counterexample_points(FatCantorSet(), 3, 3)
    trep = density_report(truncation.as_set(), (F(0), F(1)))
    ok &= (not trep.hypothesis_set) and trep.consistent
    conclude(9, ok, "500 random constructible sets consistent; identity holds under both hypotheses; truncation reported hypothesis-failing")


def test_criterion_10_determinism(tmp_path):
    commands = [
        ("witness", ["witness", "--depth", "3", "--seed", "7"]),
        ("vcdim", ["vcdim", "--group", "cyclic:12", "--set", "arc:3", "--seed", "7"]),
        ("eps-approx", ["eps-approx", "--group", "cyclic:200", "--arc", "60",
                        "--epsilon", "1/8", "--trials", "10", "--schedule", "100,400", "--seed", "7"]),
        ("steinhaus", ["steinhaus", "--stage", "5", "--seed", "7"]),
        ("border-sweep", ["border-sweep", "--sets", "3", "--r-exponents", "4:8", "--seed", "7"]),
        ("counterexample", ["counterexample", "--intervals", "3", "--points-per", "2",
                            "--triples", "100", "--seed", "7"]),
        ("theorem5-report", ["theorem5-report", "--set", "[0,1/2] u (3/4,1)", "--seed", "7"]),
        ("translate-vcdim", ["translate-vcdim", "--set", "[0,1/4]", "--window", "0,1", "--seed", "7"]),
    ]
    ok = True
    for name, argv in commands:
        first = tmp_path / f"{name}.1"
        second = tmp_path / f"{name}.2"
        code1 = main(argv + ["--out", str(first)])
        code2 = main(argv + ["--out", str(second)])
        ok &= code1 == code2 == 0
        ok &= first.read_bytes() == second.read_bytes()
    conclude(10, ok, "all subcommands produce byte-identical artifacts across two runs at a fixed seed")
