"""Quick self-contained invariant battery behind the `selftest` subcommand:
one line per check, exit status zero only when everything passes."""

from __future__ import annotations

import random
from fractions import Fraction

from .approx import FiniteTranslateFamily, covering_check, epsilon_approximation, hitting_set_for_translates
from .border import border_decay_experiment, density_report, random_closed_union, random_constructible, r_border_measure
from .cantor import FatCantorSet
from .constructible import ConstructibleSet
from .counterexample import (
    counterexample_points, matched_budget_points, no_shatter3_check, pair_uniqueness_holds, verify_difference_injective,
)
from .groups import CyclicGroup
from .vc import SetSystem, dual_vc_dimension, sauer_shelah_table, vc_dimension, vc_dimension_naive
from .witness import construct_witness, verify_witness


def _random_set(rng, window=(Fraction(-2), Fraction(2))):
    return random_constructible(rng, window)


def check_group_axioms() -> bool:
    rng = random.Random("axioms")
    model = CyclicGroup(12)
    op, e = model.compose, model.identity()
    for _ in range(1000):
        g = model.sample_uniform(rng)
        h = model.sample_uniform(rng)
        k = model.sample_uniform(rng)
        if op(op(g, h), k) != op(g, op(h, k)):
            return False
        if op(g, e) != g or op(e, g) != g:
            return False
        if op(g, model.invert(g)) != e:
            return False
    return True


def check_haar_invariance() -> bool:
    rng = random.Random("haar")
    z = CyclicGroup(12)
    for _ in range(200):
        subset = [rng.randrange(12) for _ in range(rng.randrange(1, 8))]
        g = rng.randrange(12)
        if z.haar_measure(z.translate_subset(subset, g)) != z.haar_measure(subset):
            return False
    for _ in range(100):
        a = _random_set(rng)
        g = Fraction(rng.randrange(-8, 9), 8)
        if a.translate(g).measure() != a.measure():
            return False
    return True


def check_boolean_laws() -> bool:
    rng = random.Random("bool")
    window = ConstructibleSet.interval(-2, 2)
    for _ in range(150):
        a, b, c = (_random_set(rng) for _ in range(3))
        if a.union(b.intersection(c)) != a.union(b).intersection(a.union(c)):
            return False
        ca, cb = window.difference(a), window.difference(b)
        if window.difference(a.union(b)) != ca.intersection(cb):
            return False
        if a.union(a.intersection(b)) != a:
            return False
        if a.union(a) != a:
            return False
    return True


def check_topology() -> bool:
    rng = random.Random("topo")
    for _ in range(150):
        a = _random_set(rng)
        cl, it = a.closure(), a.interior()
        if cl.closure() != cl or it.interior() != it:
            return False
        if not it.is_subset(a) or not a.is_subset(cl):
            return False
        if a.border().measure() != 0:
            return False
        # border agrees with the complement's border inside the open window
        window = ConstructibleSet.interval(-4, 4)
        inner = ConstructibleSet.interval(-4, 4, False, False)
        if a.border().intersection(inner) != window.difference(a).border().intersection(inner):
            return False
    return True


def check_difference_sets() -> bool:
    rng = random.Random("diff")
    for _ in range(60):
        a = _random_set(rng)
        if a.is_empty:
            continue
        d = a.minkowski_diff(a)
        if not d.contains(0):
            return False
        if d.reflect() != d:
            return False
    return True


def check_cantor_measures() -> bool:
    fc = FatCantorSet()
    for m in range(9):
        if fc.stage_set(m).measure() != Fraction(3, 5) + Fraction(2, 5) / 2**m:
            return False
    v0 = fc.branch_stage_set(0, 6)
    v1 = fc.branch_stage_set(1, 6)
    if not v0.intersection(v1).is_empty:
        return False
    total = v0.measure() + v1.measure()
    return total == Fraction(2, 5) - Fraction(2, 5) / 2**6


def check_witness_roundtrip() -> bool:
    fc = FatCantorSet()
    pair = fc.boundary_pair()
    w = construct_witness(pair, 2, seed=11)
    if not verify_witness(w, pair).ok:
        return False
    reloaded = type(w).loads(w.dumps())
    if reloaded.dumps() != w.dumps() or not verify_witness(reloaded, pair).ok:
        return False
    tampered = type(w).loads(w.dumps())
    pat = sorted(tampered.points)[0]
    tampered.points[pat] = tampered.points[pat] + Fraction(1, 3)
    return not verify_witness(tampered, pair).ok


def check_vc_oracle() -> bool:
    rng = random.Random("vc")
    for _ in range(25):
        n = rng.randrange(3, 8)
        rows = [frozenset(v for v in range(n) if rng.random() < 0.5) for v in range(rng.randrange(1, 12))]
        system = SetSystem.from_sets(tuple(range(n)), rows)
        d, rep = vc_dimension(system)
        if d != vc_dimension_naive(system) or not rep.verify(system):
            return False
        ok, _ = sauer_shelah_table(system, d)
        if not ok:
            return False
    arc = SetSystem.from_translates(CyclicGroup(12), range(3))
    return vc_dimension(arc)[0] == 2 and dual_vc_dimension(arc)[0] >= 1


def check_eps_approx() -> bool:
    z = CyclicGroup(200)
    fam = FiniteTranslateFamily(z, range(60))
    rng = random.Random("eps")
    res = epsilon_approximation(z, fam, Fraction(1, 10), 400, rng)
    return res.sup_deviation == fam.sup_deviation_naive(res.points)


def check_hitting_covering() -> bool:
    z = CyclicGroup(60)
    rng = random.Random("hit")
    pts = hitting_set_for_translates(range(12), range(60), z, Fraction(1, 5), rng)
    ok, missed = covering_check(range(12), pts, range(60), z)
    return ok and missed is None


def check_counterexample() -> bool:
    fc = FatCantorSet()
    cx = counterexample_points(fc, 3, 3)
    if not verify_difference_injective(cx.points):
        return False
    if not pair_uniqueness_holds(cx.points):
        return False
    report = no_shatter3_check(cx, 200, seed=5)
    return not report.full_shatter_found and report.max_patterns <= 7


def check_border_dichotomy() -> bool:
    rng = random.Random("border")
    sets = [random_closed_union(rng, (0, 1)) for _ in range(5)]
    rows = border_decay_experiment(sets, [Fraction(1, 2**j) for j in range(4, 10)], (-1, 2))
    if not all(r.within_bound for r in rows):
        return False
    cx = matched_budget_points(FatCantorSet(), 3)
    return r_border_measure(cx.as_set(), Fraction(1, 8), (0, 1)) >= Fraction(3, 5)


def check_density_reports() -> bool:
    rng = random.Random("density")
    return all(density_report(random_constructible(rng, (0, 1))).consistent for _ in range(50))


CHECKS = [
    ("group axioms (exact, randomized)", check_group_axioms),
    ("haar translation invariance", check_haar_invariance),
    ("boolean algebra laws", check_boolean_laws),
    ("closure/interior/border laws", check_topology),
    ("difference-set symmetry and zero", check_difference_sets),
    ("fat Cantor stage measures", check_cantor_measures),
    ("witness round-trip and tamper detection", check_witness_roundtrip),
    ("vc dimension vs naive oracle", check_vc_oracle),
    ("epsilon-approximation exact recount", check_eps_approx),
    ("hitting set and covering check", check_hitting_covering),
    ("counterexample injectivity and patterns", check_counterexample),
    ("border decay vs counterexample floor", check_border_dichotomy),
    ("density-hypothesis consistency", check_density_reports),
]


def run_selftest(out=print) -> bool:
    all_ok = True
    for name, fn in CHECKS:
        ok = fn()
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return all_ok
