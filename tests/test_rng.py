"""Seeded stream determinism and the frozen golden draws."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autocomm.rng import RngStream, stream

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "rng-golden.json"


def raw(s, n):
    """The next n raw 64-bit words of a stream's generator."""
    return s._gen.bit_generator.random_raw(n).tolist()


def test_golden_first_draws():
    golden = json.loads(GOLDEN.read_text())
    s = stream(golden["stream"]["seed"], golden["stream"]["label"])
    assert raw(s, len(golden["first_u64_draws"])) == golden["first_u64_draws"]


def test_same_key_same_sequence():
    a = stream(7, "x/y")
    b = stream(7, "x/y")
    assert raw(a, 16) == raw(b, 16)


def test_label_changes_sequence():
    a = stream(7, "alpha")
    b = stream(7, "beta")
    assert raw(a, 4) != raw(b, 4)


def test_seed_changes_sequence():
    a = stream(7, "alpha")
    b = stream(8, "alpha")
    assert raw(a, 4) != raw(b, 4)


def test_substream_label_path():
    s = stream(3, "traffic")
    child = s.substream("spawn")
    assert child.label == "traffic/spawn"
    assert child.seed == 3
    # Same derivation, same draws.
    again = stream(3, "traffic").substream("spawn")
    assert raw(child, 4) == raw(again, 4)


def test_substream_independent_of_parent_consumption():
    a = stream(3, "p")
    a.random(100)
    b = stream(3, "p")
    assert raw(a.substream("c"), 1) == raw(b.substream("c"), 1)


def test_seed_masked_to_64_bits():
    assert stream(1 << 64, "t").seed == 0
    wrapped = stream((1 << 64) + 5, "t")
    assert wrapped.seed == 5
    assert raw(wrapped, 1) == raw(stream(5, "t"), 1)


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


# Bounds for `rounds`: 1 reads nothing, 2**32 takes a whole half, and
# 2**31 + 1 and 3 * 2**30 reject about half and a quarter of their draws.
HIGHS = [1, 2, 3, 7, 100, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       lead=st.integers(0, 3),
       count=st.integers(1, 5),
       layout=st.lists(st.tuples(st.sampled_from([None, *HIGHS]),
                                 st.integers(0, 9)),
                       min_size=1, max_size=4))
def test_rounds_match_the_calls_made_one_by_one(seed, lead, count, layout):
    """`rounds` against the same numpy calls on a twin stream; an odd
    `lead` of bounded draws starts both with a cached 32-bit half."""
    got, twin = stream(seed, "rounds"), stream(seed, "rounds")
    for s in (got, twin):
        s.integers(0, 5, lead)
    arrays = got.rounds(count, layout)
    for i in range(count):
        for array, (high, n) in zip(arrays, layout):
            want = (twin.random(n) if high is None
                    else twin.integers(0, high, n))
            assert array.dtype == want.dtype
            assert np.array_equal(array[i], want)
    assert got._gen.bit_generator.state == twin._gen.bit_generator.state
    assert raw(got, 4) == raw(twin, 4)


def test_rounds_refuse_bounds_outside_32_bits():
    s = stream(1, "rounds")
    for high in (0, 2 ** 32 + 1):
        with pytest.raises(ValueError):
            s.rounds(2, [(high, 3)])
    assert [a.shape for a in s.rounds(0, [(7, 3), (None, 2)])] == [(0, 3),
                                                                   (0, 2)]
