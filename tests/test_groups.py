import random
from fractions import Fraction

import pytest

from vclab.groups import CyclicGroup, parse_model_spec

MODELS = [CyclicGroup(5), CyclicGroup(12)]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: str(m.describe()))
def test_group_axioms_randomized(model):
    rng = random.Random(f"axioms/{model.describe()}")
    op, e = model.compose, model.identity()
    for _ in range(10_000):
        g = model.sample_uniform(rng)
        h = model.sample_uniform(rng)
        k = model.sample_uniform(rng)
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
    a = [z.sample_uniform(random.Random("s")) for _ in range(50)]
    b = [z.sample_uniform(random.Random("s")) for _ in range(50)]
    # same seed, fresh generators: identical first draw; same stream when shared
    assert a[0] == b[0]
    rng1, rng2 = random.Random(123), random.Random(123)
    assert [z.sample_uniform(rng1) for _ in range(200)] == [
        z.sample_uniform(rng2) for _ in range(200)
    ]


def test_uniformity_three_sigma():
    # 1e5 draws on Z_10: each residue count within 3 sigma of 10000,
    # sigma = sqrt(1e5 * 0.1 * 0.9) ~ 94.87
    z = CyclicGroup(10)
    rng = random.Random("freq")
    counts = [0] * 10
    for _ in range(100_000):
        counts[z.sample_uniform(rng)] += 1
    for c in counts:
        assert abs(c - 10_000) <= 285


def test_descriptor_roundtrip():
    assert CyclicGroup(12).describe() == {"kind": "cyclic", "n": 12}
    assert parse_model_spec("cyclic:12") == CyclicGroup(12)
