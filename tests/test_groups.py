import random
from fractions import Fraction

import pytest

from vclab.groups import CyclicGroup, parse_model_spec

MODELS = [CyclicGroup(5), CyclicGroup(12)]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: str(m.describe()))
def test_group_axioms_randomized(model):
    rng = random.Random(f"axioms/{model.describe()}")
    op, e = model.compose, model.identity()
    draws = model.sample(rng, 30_000)
    for g, h, k in zip(draws[0::3], draws[1::3], draws[2::3]):
        assert all(model.normalize(x) == x for x in (g, h, k))
        assert op(op(g, h), k) == op(g, op(h, k))
        assert op(g, e) == g and op(e, g) == g
        assert op(g, model.invert(g)) == e


def test_multiply_examples():
    z5 = CyclicGroup(5)
    assert z5.compose(3, 4) == 2


def test_inverse_examples():
    z10 = CyclicGroup(10)
    assert z10.invert(3) == 7
    assert z10.invert(z10.identity()) == z10.identity()


def test_haar_measure_counting_and_invariance():
    z10 = CyclicGroup(10)
    assert z10.haar_measure({1, 2, 3}) == Fraction(3, 10)
    z12 = CyclicGroup(12)
    assert z12.haar_measure({z12.compose(7, v) for v in (0, 1, 2)}) == Fraction(3, 12)
    rng = random.Random("inv")
    for _ in range(300):
        subset = [rng.randrange(12) for _ in range(rng.randrange(1, 9))]
        g = rng.randrange(12)
        assert z12.haar_measure({z12.compose(g, v) for v in subset}) == z12.haar_measure(subset)


def test_sampler_deterministic():
    z = CyclicGroup(97)
    a = z.sample(random.Random("s"), 50)
    b = z.sample(random.Random("s"), 50)
    assert a == b and len(a) == 50 and all(z.normalize(v) == v for v in a)
    # one generator shared by two calls continues where the first call stopped
    rng1, rng2 = random.Random(123), random.Random(123)
    assert z.sample(rng1, 80) + z.sample(rng1, 120) == z.sample(rng2, 200)


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 10**6])
def test_sample_is_the_randrange_stream(n):
    # Same values as randrange from equal seeds, and the generator left where
    # randrange leaves it, also at n = 2^j + 1 where about half the bits are
    # redrawn, and at n = 1 where every draw is 0.
    z = CyclicGroup(n)
    for k in (0, 1, 7, 500):
        rng, ref = random.Random(f"stream/{n}/{k}"), random.Random(f"stream/{n}/{k}")
        assert z.sample(rng, k) == [ref.randrange(n) for _ in range(k)]
        assert rng.getstate() == ref.getstate()


def test_uniformity_three_sigma():
    # 1e5 draws on Z_10: each residue count within 3 sigma of 10000,
    # sigma = sqrt(1e5 * 0.1 * 0.9) ~ 94.87
    z = CyclicGroup(10)
    counts = [0] * 10
    for v in z.sample(random.Random("freq"), 100_000):
        counts[v] += 1
    for c in counts:
        assert abs(c - 10_000) <= 285


def test_descriptor_roundtrip():
    assert CyclicGroup(12).describe() == {"kind": "cyclic", "n": 12}
    assert parse_model_spec("cyclic:12") == CyclicGroup(12)
