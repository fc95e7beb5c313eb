import json
import random

import pytest

from vclab.cli import main
from vclab.groups import CyclicGroup, parse_model_spec


def test_sampler_deterministic():
    z = CyclicGroup(97)
    a = z.sample(random.Random("s"), 50)
    b = z.sample(random.Random("s"), 50)
    assert a == b and len(a) == 50 and all(0 <= v < 97 for v in a)
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


def test_descriptor_roundtrip(tmp_path, capsys):
    # The group descriptor of a vcdim artifact names the group it was run on.
    out = tmp_path / "vcdim.json"
    assert main(["vcdim", "--group", "cyclic:12", "--out", str(out)]) == 0
    group = json.loads(out.read_text())["group"]
    assert group == {"kind": "cyclic", "n": 12}
    assert parse_model_spec(f"{group['kind']}:{group['n']}") == CyclicGroup(12)
