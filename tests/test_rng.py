"""Seeded stream determinism and the frozen golden draws."""

import json
from pathlib import Path

import numpy as np

from autocomm.rng import RngStream, stream

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "rng-golden.json"


def test_golden_first_draws():
    golden = json.loads(GOLDEN.read_text())
    s = stream(golden["stream"]["seed"], golden["stream"]["label"])
    draws = [s.u64() for _ in golden["first_u64_draws"]]
    assert draws == golden["first_u64_draws"]


def test_same_key_same_sequence():
    a = stream(7, "x/y")
    b = stream(7, "x/y")
    assert [a.u64() for _ in range(16)] == [b.u64() for _ in range(16)]


def test_label_changes_sequence():
    a = stream(7, "alpha")
    b = stream(7, "beta")
    assert [a.u64() for _ in range(4)] != [b.u64() for _ in range(4)]


def test_seed_changes_sequence():
    a = stream(7, "alpha")
    b = stream(8, "alpha")
    assert [a.u64() for _ in range(4)] != [b.u64() for _ in range(4)]


def test_substream_label_path():
    s = stream(3, "traffic")
    child = s.substream("spawn")
    assert child.label == "traffic/spawn"
    assert child.seed == 3
    # Same derivation, same draws.
    again = stream(3, "traffic").substream("spawn")
    assert [child.u64() for _ in range(4)] == [again.u64() for _ in range(4)]


def test_substream_independent_of_parent_consumption():
    a = stream(3, "p")
    a.random(100)
    b = stream(3, "p")
    assert a.substream("c").u64() == b.substream("c").u64()


def test_seed_masked_to_64_bits():
    assert stream(1 << 64, "t").seed == 0
    wrapped = stream((1 << 64) + 5, "t")
    assert wrapped.seed == 5
    assert wrapped.u64() == stream(5, "t").u64()


def test_integers_half_open():
    s = stream(11, "bounds")
    draws = s.integers(0, 3, size=2000)
    assert draws.min() == 0
    assert draws.max() == 2

    scalar = stream(11, "bounds2").integers(0, 1)
    assert scalar == 0 and isinstance(scalar, int)


def test_uniform_and_exponential_ranges():
    s = stream(12, "ranges")
    u = s.uniform(2.0, 5.0, size=500)
    assert np.all((u >= 2.0) & (u < 5.0))
    e = s.exponential(1.0, size=500)
    assert np.all(e >= 0.0)


def test_shuffle_deterministic():
    a, b = list(range(10)), list(range(10))
    stream(9, "perm").shuffle(a)
    stream(9, "perm").shuffle(b)
    assert a == b and sorted(a) == list(range(10))


def test_repr_carries_key():
    assert repr(RngStream(4, "a/b")) == "RngStream(seed=4, label='a/b')"
