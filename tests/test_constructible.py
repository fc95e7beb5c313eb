import random
from fractions import Fraction

import pytest

import fraction_sweep
from fraction_border import r_neighborhood
from fraction_translate import minkowski_diff
from vclab.border import random_constructible
from vclab.cantor import FatCantorSet
from vclab.constructible import (
    ConstructibleSet,
    Interval,
    locally_positive_measure,
    parse_set,
)

F = Fraction


def rset(rng):
    return random_constructible(rng, (F(-2), F(2)))


def test_canonical_merging():
    assert parse_set("[0,1] u [1,2]") == parse_set("[0,2]")
    assert parse_set("[0,1) u {1}") == parse_set("[0,1]")
    assert parse_set("[0,1) u (1,2]") != parse_set("[0,2]")
    assert parse_set("(0,1) u {2}").points == (F(2),)
    # degenerate open pieces vanish
    assert ConstructibleSet.from_pieces([(F(1), F(1), False, True)]).is_empty


@pytest.mark.parametrize("lo_closed", [False, True])
@pytest.mark.parametrize("hi_closed", [False, True])
def test_interval_contains_reads_both_end_flags(lo_closed, hi_closed):
    # A degenerate piece is the point {p} only when both ends are closed.
    point = Interval(F(0), F(0), lo_closed, hi_closed)
    assert point.contains(F(0)) == (lo_closed and hi_closed)
    assert not point.contains(F(1)) and not point.contains(F(-1))
    proper = Interval(F(0), F(1), lo_closed, hi_closed)
    assert proper.contains(F(0)) == lo_closed and proper.contains(F(1)) == hi_closed
    assert proper.contains(F(1, 2)) and not proper.contains(F(-1)) and not proper.contains(F(2))


def assert_canonical(x):
    for a, b in zip(x.pieces, x.pieces[1:]):
        apart = a.hi < b.lo
        touching = a.hi == b.lo and not a.hi_closed and not b.lo_closed
        assert apart or touching and a.lo < a.hi and b.lo < b.hi, x
    for piece in x.pieces:
        assert piece.lo < piece.hi or piece.lo == piece.hi and piece.lo_closed and piece.hi_closed, x
    assert ConstructibleSet.from_pieces(x.pieces) == x
    assert parse_set(x.to_text()) == x
    assert all(iv.lo < iv.hi for iv in x.intervals)
    assert sorted([*x.intervals, *(Interval(p, p) for p in x.points)]) == list(x.pieces)


def test_every_result_is_one_canonical_run_of_pieces():
    rng = random.Random("one-run")
    for _ in range(150):
        a, b = rset(rng), rset(rng)
        g, r = F(rng.randrange(-120, 121), 60), F(1, rng.randrange(1, 60))
        for x in (a, b, a.union(b), a.intersection(b), a.difference(b), b.difference(a),
                  a.closure(), a.interior(), a.border(), a.translate(g), r_neighborhood(a, r),
                  a.union(b.translate(g)).border()):
            assert_canonical(x)


def test_boolean_examples():
    a = ConstructibleSet.interval(0, 1)
    b = ConstructibleSet.interval(F(1, 2), 2, lo_closed=False)
    assert a.intersection(b) == parse_set("(1/2,1]")
    assert a.union(a) == a
    c = a.union(ConstructibleSet.from_points([2]))
    assert c.difference(ConstructibleSet.from_points([2])) == a


def test_boolean_laws_randomized():
    rng = random.Random("laws")
    window = ConstructibleSet.interval(-2, 2)
    for _ in range(300):
        a, b, c = rset(rng), rset(rng), rset(rng)
        # distributivity
        assert a.intersection(b.union(c)) == a.intersection(b).union(a.intersection(c))
        assert a.union(b.intersection(c)) == a.union(b).intersection(a.union(c))
        # De Morgan within the window
        ca, cb = window.difference(a), window.difference(b)
        assert window.difference(a.union(b)) == ca.intersection(cb)
        assert window.difference(a.intersection(b)) == ca.union(cb)
        # absorption, idempotence
        assert a.union(a.intersection(b)) == a
        assert a.intersection(a.union(b)) == a
        assert a.union(a) == a and a.intersection(a) == a


def edge_probes(ends):
    """Each end with a point just to either side, closer than the 1/1260
    grid of `rset`."""
    eps = F(1, 10**6)
    return sorted(e + d for e in set(ends) for d in (-eps, 0, eps))


def test_membership_matches_structure():
    rng = random.Random("member")
    ops = {
        "union": lambda p, q: p or q,
        "intersection": lambda p, q: p and q,
        "difference": lambda p, q: p and not q,
    }
    for _ in range(100):
        a, b = rset(rng), rset(rng)
        results = {name: getattr(a, name)(b) for name in ops}
        probes = [F(rng.randrange(-4000, 4001), 1000) for _ in range(40)] + edge_probes(
            e for s in (a, b) for lo, hi, _, _ in s.pieces for e in (lo, hi)
        )
        for x in probes:
            for name, fn in ops.items():
                assert results[name].contains(x) == fn(a.contains(x), b.contains(x)), (name, x)
    for _ in range(200):
        pieces = []
        for _ in range(rng.randrange(1, 6)):
            lo, hi = sorted(F(rng.randrange(-8, 9), 4) for _ in range(2))
            pieces.append((lo, hi, rng.random() < 0.5, rng.random() < 0.5))
        s = ConstructibleSet.from_pieces(pieces)
        for x in edge_probes(e for p in pieces for e in p[:2]):
            covered = any(
                (lo < x or (x == lo and lc)) and (x < hi or (x == hi and hc))
                for lo, hi, lc, hc in pieces
            )
            assert s.contains(x) == covered, (pieces, x)


def test_border_examples():
    assert ConstructibleSet.interval(0, F(1, 2)).border() == ConstructibleSet.from_points([0, F(1, 2)])
    assert ConstructibleSet.interval(0, F(1, 2)).border().measure() == 0
    assert parse_set("(0,1) u {2}").border() == ConstructibleSet.from_points([0, 1, 2])


def test_interior_border_fat_cantor_stage3():
    fc = FatCantorSet()
    k3 = fc.stage_set(3)
    opened = k3.interior()
    assert len(opened.intervals) == 8
    assert all(not iv.lo_closed and not iv.hi_closed for iv in opened.intervals)
    border = k3.border()
    assert border.measure() == 0
    assert len(border.points) == 16


def test_topology_laws_randomized():
    rng = random.Random("topo")
    window = ConstructibleSet.interval(-4, 4)
    inner = ConstructibleSet.interval(-4, 4, False, False)
    for _ in range(200):
        a = rset(rng)
        cl, it, bd = a.closure(), a.interior(), a.border()
        assert cl.closure() == cl and it.interior() == it
        assert it.is_subset(a) and a.is_subset(cl)
        assert bd.measure() == 0
        assert bd == cl.intersection(window.difference(a).closure()).intersection(cl)
        # border equals the window-complement's border away from window edges
        comp = window.difference(a)
        assert bd.intersection(inner) == comp.border().intersection(inner)


def test_translate():
    a = ConstructibleSet.interval(0, 1)
    assert a.translate(F(1, 3)) == ConstructibleSet.interval(F(1, 3), F(4, 3))
    assert a.translate(0) == a
    rng = random.Random("tr")
    for _ in range(100):
        s = rset(rng)
        g = F(rng.randrange(-16, 17), 8)
        assert s.translate(g).measure() == s.measure()


def test_minkowski_diff_examples():
    q = ConstructibleSet.interval(0, F(1, 4))
    assert minkowski_diff(q, q) == ConstructibleSet.interval(F(-1, 4), F(1, 4))
    z = ConstructibleSet.from_points([0])
    assert minkowski_diff(z, z) == z
    fc = FatCantorSet()
    k2 = fc.stage_set(2)
    d = minkowski_diff(k2, k2)
    # difference set of a positive-measure set contains an interval around 0
    zero_component = [iv for iv in d.intervals if iv.contains(F(0))]
    assert zero_component and zero_component[0].lo < 0 < zero_component[0].hi


def test_minkowski_diff_properties():
    rng = random.Random("mink")
    for _ in range(60):
        a = rset(rng)
        if a.is_empty:
            continue
        d = minkowski_diff(a, a)
        assert d.contains(0)
        # {0} - d is -d
        assert minkowski_diff(ConstructibleSet.from_points([0]), d) == d


def test_minkowski_diff_against_translate_oracle():
    # independent route: q is a difference a - b exactly when A meets B + q
    rng = random.Random("mink-oracle")
    for _ in range(80):
        a, b = rset(rng), rset(rng)
        if a.is_empty or b.is_empty:
            continue
        d = minkowski_diff(a, b)
        for _ in range(25):
            q = F(rng.randrange(-5000, 5001), 1000)
            assert d.contains(q) == (not a.intersection(b.translate(q)).is_empty)


def distance(a, x):
    """Exact distance from x to the nonempty set a."""
    return min(max(F(0), lo - x, x - hi) for lo, hi, _, _ in a.pieces)


def test_neighborhood_matches_distance():
    rng = random.Random("nbhd")
    for _ in range(80):
        a = rset(rng)
        if a.is_empty:
            continue
        r = F(rng.randrange(1, 40), 80)
        n = r_neighborhood(a, r)
        for _ in range(25):
            x = F(rng.randrange(-5000, 5001), 1000)
            assert n.contains(x) == (distance(a, x) <= r)


def test_distance_and_neighborhood():
    assert distance(ConstructibleSet.interval(0, 1), F(3, 2)) == F(1, 2)
    assert r_neighborhood(ConstructibleSet.from_points([0]), F(1, 4)) == ConstructibleSet.interval(
        F(-1, 4), F(1, 4)
    )
    fc = FatCantorSet()
    k1 = fc.stage_set(1)
    # stage 1 has 2 components: measure grows by exactly 4r
    assert r_neighborhood(k1, F(1, 100)).measure() == k1.measure() + 4 * F(1, 100)


def test_density_hypothesis_examples():
    assert locally_positive_measure(ConstructibleSet.interval(0, 1))
    assert not locally_positive_measure(parse_set("[0,1] u {2}"))
    # a finite point set fails at every point
    assert not locally_positive_measure(ConstructibleSet.from_points([0, F(1, 2), 1]))
    assert locally_positive_measure(ConstructibleSet.empty())


def test_text_roundtrip():
    texts = ["[0,1/2) u (3/4,1] u {2}", "{}", "{-3/7}", "(-1,0) u (0,1)"]
    for t in texts:
        s = parse_set(t)
        assert parse_set(s.to_text()) == s
    rng = random.Random("ser")
    for _ in range(200):
        s = rset(rng)
        assert parse_set(s.to_text()) == s


def test_structural_equality_is_set_equality():
    a = parse_set("[0,1/2) u (3/4,1]")
    b = ConstructibleSet.from_pieces(
        [(F(3, 4), F(1), False, True), (F(0), F(1, 2), True, False)]
    )
    assert a == b and hash(a) == hash(b)


def test_interval_validation():
    with pytest.raises(ValueError, match="lo > hi"):
        ConstructibleSet.from_pieces([Interval(F(1), F(0))])


@pytest.mark.parametrize(
    "text, hull",
    [
        ("[0,1] u {2}", (F(0), F(2))),
        ("{-1} u [0,1]", (F(-1), F(1))),
        ("(0,1/2) u (1/2,3/4]", (F(0), F(3, 4))),
        ("{}", None),
    ],
    ids=["point-after-last-interval", "point-before-first-interval", "open-ends", "empty"],
)
def test_hull(text, hull):
    assert parse_set(text).hull() == hull


def random_pieces(rng, coprime):
    """Zero to six pieces with ends in [-2, 2] over mixed denominators, or
    over distinct primes: open and closed ends, isolated points, degenerate
    open pieces, and plain ints where an end is whole."""
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    dens = rng.sample(primes, 4) if coprime else [1, 2, 3, 4, 12, 1000]
    pieces = []
    for _ in range(rng.randrange(7)):
        lo, hi = sorted(F(rng.randint(-2 * d, 2 * d), d) for d in rng.choices(dens, k=2))
        if rng.random() < 0.25:
            hi = lo
        lo, hi = (int(v) if v.denominator == 1 and rng.random() < 0.5 else v for v in (lo, hi))
        pieces.append(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return pieces


def fields(x):
    return repr(x.pieces)


@pytest.mark.parametrize("coprime", [False, True], ids=["mixed", "coprime"])
def test_lattice_sweep_matches_fraction_key_oracle(coprime):
    rng = random.Random(f"fraction-key-oracle/{coprime}")
    for _ in range(300):
        pa, pb = random_pieces(rng, coprime), random_pieces(rng, coprime)
        a, b = ConstructibleSet.from_pieces(pa), ConstructibleSet.from_pieces(pb)
        assert fields(a) == fields(fraction_sweep.from_pieces(pa))
        assert fields(b) == fields(fraction_sweep.from_pieces(pb))
        ends = {id(v) for x in (a, b) for piece in x.pieces for v in piece[:2]}
        for op in ("union", "intersection", "difference"):
            got = getattr(a, op)(b)
            assert fields(got) == fields(getattr(fraction_sweep, op)(a, b))
            # Every end of the result is an end of an operand, not a new Fraction.
            assert all(id(v) in ends for piece in got.pieces for v in piece[:2])
            measure = got.measure()
            assert type(measure) is F and measure == fraction_sweep.measure(got)

