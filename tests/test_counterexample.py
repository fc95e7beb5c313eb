import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

import fraction_counterexample as ref
import vclab.counterexample as ce
from vclab.cantor import FatCantorSet
from vclab.cli import main
from vclab.counterexample import (
    CounterexamplePoints,
    PointLattice,
    counterexample_points,
    matched_budget_points,
    no_shatter3_check,
    pair_translate_count,
    pair_uniqueness_holds,
    realized_patterns,
    sequence_positions,
    verify_difference_injective,
)

F = Fraction


@pytest.fixture(scope="module")
def fc():
    return FatCantorSet()


def brute_injective(points):
    # oracle: collect every ordered difference and look for collisions
    seen = set()
    for x in points:
        for y in points:
            if x == y:
                continue
            d = y - x
            if d in seen:
                return False
            seen.add(d)
    return True


def test_sequence_positions_shape():
    pos = sequence_positions(F(0), F(1), 3)
    vals = [v for _, v in pos]
    assert vals == sorted(vals)
    assert all(F(0) < v < F(1) for v in vals)
    assert pos[3] == (0, F(1, 2))
    # geometric approach at both ends
    for j, v in pos:
        if j >= 0:
            assert 1 - v <= F(1, 2**j)
        if j <= 0:
            assert v <= F(1, 2**-j)


def test_tiny_budgets(fc):
    cx = counterexample_points(fc, 1, 1)
    assert len(cx.points) == 3
    assert verify_difference_injective(cx.points)
    assert brute_injective(cx.points)
    stage, a, b, seq = cx.by_interval[0]
    assert stage == 1 and (a, b) == (F(2, 5), F(3, 5))
    assert list(seq) == sorted(seq)
    assert all(a < c < b for c in seq)


def test_moderate_budgets_injective_and_bounded(fc):
    cx = counterexample_points(fc, 3, 5)
    assert len(cx.points) == 3 * 11
    assert verify_difference_injective(cx.points)
    assert brute_injective(cx.points)
    for stage, a, b, seq in cx.by_interval:
        length = b - a
        k = (len(seq) - 1) // 2
        for idx, j in enumerate(range(-k, k + 1)):
            c = seq[idx]
            assert a < c < b
            if j >= 0:
                assert b - c <= length / 2**j
            if j <= 0:
                assert c - a <= length / 2**-j


def test_construction_is_deterministic(fc):
    assert counterexample_points(fc, 4, 3).points == counterexample_points(fc, 4, 3).points


def test_pair_uniqueness_exhaustive(fc):
    cx = counterexample_points(fc, 3, 3)
    pts = cx.point_set()
    assert pair_uniqueness_holds(cx.lattice)
    for p, q in combinations(cx.points, 2):
        # the pair itself sits in one translate (t = 0), never more
        assert pair_translate_count(pts, p, q) == 1


def test_realized_patterns_never_full(fc):
    cx = counterexample_points(fc, 3, 3)
    rng = random.Random("triples")
    for _ in range(300):
        triple = tuple(rng.sample(cx.points, 3))
        pats = realized_patterns(cx.lattice, triple)
        assert 0 in pats
        assert len(pats) <= 7


def test_no_shatter3_report(fc):
    cx = counterexample_points(fc, 3, 4)
    report = no_shatter3_check(cx, 400, seed=9)
    assert report.triples_checked == 400
    assert not report.full_shatter_found
    assert report.max_patterns <= 7
    assert report.pair_uniqueness_ok


def test_matched_budget_layout(fc):
    cx = matched_budget_points(fc, 3)
    stages = [stage for stage, _, _, _ in cx.by_interval]
    assert len(stages) == 2**3 - 1
    by_stage = {s: 0 for s in set(stages)}
    for stage, _, _, seq in cx.by_interval:
        by_stage[stage] += 1
        assert len(seq) == 2 * max(1, 3 + 2 - 2 * stage) + 1
    assert by_stage == {1: 1, 2: 2, 3: 4}


def test_interval_budget_errors(fc):
    with pytest.raises(ValueError):
        counterexample_points(fc, 0, 1)
    with pytest.raises(ValueError):
        counterexample_points(fc, 3, 0)
    with pytest.raises(ValueError):
        counterexample_points(fc, 100, 1, max_stage=3)


def test_point_cap_refuses_before_placement(fc, monkeypatch):
    # Criterion 07 places the stage-8 matched truncation, exactly at the cap.
    monkeypatch.setattr(ce, "_Placement", None)
    for make in (lambda: matched_budget_points(fc, 9),
                 lambda: matched_budget_points(fc, 10**6),
                 lambda: counterexample_points(fc, 200, 5),
                 lambda: counterexample_points(fc, 1, 420)):
        with pytest.raises(ValueError, match=f"more than {ce.MAX_POINTS} points"):
            make()
    with pytest.raises(ValueError, match="need at least one interval"):
        matched_budget_points(fc, 0)


def report_fields(report):
    return (report.triples_checked, report.max_patterns, report.full_shatter_found,
            report.pair_uniqueness_ok)


@pytest.mark.parametrize("scale", [F(4, 5), F(7, 9), F(38, 39)], ids=str)
@pytest.mark.parametrize("m", range(1, 7))
def test_matched_points_and_report_match_fraction_oracle(scale, m):
    fc = FatCantorSet(scale)
    cx = matched_budget_points(fc, m)
    oracle = ref.matched_budget_points(fc, m)
    assert cx.points == oracle.points
    assert cx.by_interval == oracle.by_interval
    report = no_shatter3_check(cx, 30, seed=m)
    assert report_fields(report) == ref.no_shatter3_check(oracle.points, 30, seed=m)


def test_28x3_shape_matches_fraction_oracle(fc):
    cx = counterexample_points(fc, 28, 3)
    oracle = ref.counterexample_points(fc, 28, 3)
    assert cx.points == oracle.points and cx.by_interval == oracle.by_interval
    assert report_fields(no_shatter3_check(cx, 50, seed=0)) == ref.no_shatter3_check(oracle.points, 50)


def test_extra_triples_off_the_set_match_fraction_oracle(fc):
    cx = counterexample_points(fc, 3, 3)
    pset = cx.point_set()
    a, b, c = cx.points[:3]
    for triple in [(F(0), F(1, 3), F(1)), (a, b, F(1, 7)), (a, a + F(1, 11), c), (a, b, c)]:
        assert realized_patterns(cx.lattice, triple) == ref.realized_patterns(pset, triple)


def test_pair_check_sees_one_repeated_difference_among_201_points():
    # The difference 1 occurs in only two of the C(201, 2) pairs, (1, 2) and
    # (2^199, 2^199 + 1), so only a check of every pair is sure to see it.
    pts = tuple(F(2**i) for i in range(200)) + (F(2**199 + 1),)
    assert not no_shatter3_check(CounterexamplePoints(pts, ()), 1).pair_uniqueness_ok
    assert not ref.pair_uniqueness_holds(pts)


@pytest.mark.parametrize(
    "modulus, scale, m",
    [(101, F(4, 5), 4), (101, F(38, 39), 3), (5, F(4, 5), 3), (3, F(7, 9), 3), (2, F(4, 5), 2)],
    ids=["101-4/5", "101-38/39", "5-divides-4/5", "3-divides-7/9", "2-divides-all"],
)
def test_small_modulus_keeps_points_identical(monkeypatch, modulus, scale, m):
    # With a tiny modulus residues collide all the time, and a modulus that
    # divides the denominators leaves values without a residue; either way
    # the exact re-check decides, so the points stay those of the oracle.
    fc = FatCantorSet(scale)
    oracle = ref.matched_budget_points(fc, m)
    monkeypatch.setattr(ce, "MODULUS", modulus)
    cx = matched_budget_points(fc, m)
    assert cx.points == oracle.points and cx.by_interval == oracle.by_interval


def test_checks_match_fraction_oracle_on_random_sets():
    rng = random.Random("lattice-checks")
    for _ in range(60):
        pts = sorted({F(rng.randrange(-40, 40), rng.choice((1, 2, 3, 6))) for _ in range(rng.randrange(3, 12))})
        if len(pts) < 3:
            continue
        pset, lattice = frozenset(pts), PointLattice(pts)
        assert verify_difference_injective(pts) == ref.verify_difference_injective(pts)
        for _ in range(10):
            p, q = rng.choice(pts), rng.choice(pts + [F(1, 7), F(rng.randrange(-5, 5), 2)])
            assert pair_translate_count(pset, p, q) == ref.pair_translate_count(pset, p, q)
            triple = tuple(rng.sample(pts, 2)) + (rng.choice(pts + [F(1, 5), F(9, 2)]),)
            assert realized_patterns(lattice, triple) == ref.realized_patterns(pset, triple)
        assert pair_uniqueness_holds(lattice) == ref.pair_uniqueness_holds(pts)


def test_every_triple_of_the_stage_3_truncation_matches_fraction_oracle():
    cx = matched_budget_points(FatCantorSet(F(4, 5)), 3)
    pset = cx.point_set()
    triples = list(combinations(cx.points, 3))
    assert len(triples) == 2300
    for triple in triples:
        assert realized_patterns(cx.lattice, triple) == ref.realized_patterns(pset, triple)


# The patterns the lemma of the `vclab.counterexample` docstring leaves on a
# triple of a difference-injective set: none, each single point, and all three.
LEMMA_PATTERNS = {0b000, 0b001, 0b010, 0b100, 0b111}


def lattice_patterns(ints, triple):
    """The patterns of an integer triple over the translators p - x, p in the
    triple and x in the set, plus the empty one, by plain membership."""
    members = set(ints)
    patterns = {0}
    for t in {p - x for p in triple for x in ints}:
        patterns.add(sum(1 << j for j, p in enumerate(triple) if p - t in members))
    return patterns


@pytest.mark.parametrize("scale", [F(4, 5), F(7, 9), F(38, 39)], ids=str)
def test_every_triple_of_a_truncation_realizes_the_lemma_patterns(scale):
    fc = FatCantorSet(scale)
    truncations = [counterexample_points(fc, 1, 1), *(matched_budget_points(fc, m) for m in (1, 2, 3))]
    assert [len(cx.points) for cx in truncations] == [3, 3, 11, 25]
    for cx in truncations:
        lattice = cx.lattice
        for triple, ints in zip(combinations(cx.points, 3), combinations(lattice.ints, 3)):
            assert realized_patterns(lattice, triple) == LEMMA_PATTERNS
            assert lattice_patterns(lattice.ints, ints) == LEMMA_PATTERNS


@pytest.mark.parametrize(
    "points, triple",
    [
        # 1 - 0 = 2 - 1: the difference 1 has count 2, so it is scanned.
        ((0, 1, 2, 5), (0, 1, 5)),
        ((0, 1, 2, 5), (2, 1, 0)),
        # 1 is a member and 4 is not; their difference 3 has count 1 (from
        # 0 to 3), so S_3 = {0}, not {1}.
        ((0, 1, 3), (1, 4, 3)),
        ((0, 1, 3), (4, 1, 0)),
        # No end is on the lattice Z, but every difference is.
        ((0, 1), (F(1, 2), F(3, 2), F(5, 2))),
        # One end off the lattice: its differences to the others are not.
        ((0, 1), (0, F(1, 2), 1)),
        # A repeated end: the difference 0 has the count of every member.
        ((0, 1, 3), (1, 1, 3)),
        ((F(1, 3),), (F(1, 3), F(1, 3), F(1, 3))),
    ],
    ids=["count-2", "count-2-reversed", "count-1-non-member", "count-1-non-member-first",
         "off-lattice-ends", "half-off-lattice", "repeated-end", "one-point"],
)
def test_triples_off_the_count_1_shortcut_match_fraction_oracle(points, triple):
    pset = frozenset(F(x) for x in points)
    triple = tuple(F(x) for x in triple)
    assert realized_patterns(PointLattice(pset), triple) == ref.realized_patterns(pset, triple)


@pytest.mark.parametrize(
    "points, holds, injective",
    [((), True, True), ((F(2, 3),), True, True), ((F(2, 3), F(2, 3)), True, False),
     ((F(2, 3),) * 3, True, False), ((F(0), F(2, 3), F(2, 3)), False, False),
     ((F(0), F(1), F(3), F(0)), False, False), ((F(0), F(1), F(2)), False, False),
     ((F(0), F(1), F(3)), True, True)],
    ids=["empty", "single", "repeated-single", "thrice-single", "repeated-of-two",
         "repeated-of-three", "arithmetic", "sidon"],
)
def test_pair_uniqueness_on_small_sets_matches_fraction_oracle(points, holds, injective):
    # A repeated point is a pair with difference 0: it breaks uniqueness
    # once a second distinct point gives that difference a second pair.  It
    # always breaks injectivity, so the two checks, read off one table,
    # differ exactly on a repeated single point.
    lattice = PointLattice(points)
    assert pair_uniqueness_holds(lattice) == ref.pair_uniqueness_holds(points) == holds
    assert verify_difference_injective(lattice) == ref.verify_difference_injective(points) == injective
    assert verify_difference_injective(points) == injective


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["--matched", "6"], "44ab65026e8de6cacc664cc6bf90bb7d57d595c7ce02fe9149c8a235c81021ff"),
        (["--intervals", "28", "--points-per", "3"],
         "0629327556b70dc29277d1885404ceb59afb3da92703352caccbd3334d3a0bc1"),
    ],
    ids=["matched-6", "28x3"],
)
def test_counterexample_artifact_bytes_are_pinned(tmp_path, argv, sha256):
    # Digests recorded from earlier commits.  The matched-6 truncation has
    # 219 points, and 28x3 is the shape of criterion 8.
    out = tmp_path / "counterexample.json"
    assert main(["counterexample", *argv, "--triples", "1000", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_cli_does_not_read_the_pair_count_cache(tmp_path):
    ce._cached_lattice.cache_clear()
    argv = ["counterexample", "--matched", "2", "--triples", "20", "--out", str(tmp_path / "cx.json")]
    assert main(argv) == 0
    info = ce._cached_lattice.cache_info()
    assert info.hits == info.misses == 0


def test_cli_builds_one_lattice_per_run(tmp_path, monkeypatch):
    # The construction's injectivity check and the pair and triple checks
    # share the truncation's one lattice and its one difference table.
    built = []
    init = PointLattice.__init__

    def counting_init(self, points):
        built.append(self)
        init(self, points)

    monkeypatch.setattr(PointLattice, "__init__", counting_init)
    argv = ["counterexample", "--matched", "3", "--triples", "50", "--out", str(tmp_path / "cx.json")]
    assert main(argv) == 0
    assert len(built) == 1
