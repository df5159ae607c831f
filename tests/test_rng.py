"""Seeded stream determinism and the frozen golden draws."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalar_oracle import NumpyStream

from autocomm.rng import RngStream, stream

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "docs" / "rng-golden.json"


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


def test_the_ga_layout_is_decoded_from_a_fresh_stream(monkeypatch):
    """16 rounds of the GA's default layout, from a stream with no cached
    half, are decoded from raw words: numpy's own calls make none."""
    made = []
    call = RngStream._call

    def counted(self, *args):
        made.append(self.label)
        return call(self, *args)

    monkeypatch.setattr(RngStream, "_call", counted)
    layout = ((100, 300), (None, 1400), (10, 900))
    got, twin = stream(13, "ga"), stream(13, "ga")
    arrays = got.rounds(16, layout)
    assert made == []
    for i in range(16):
        for array, (high, n) in zip(arrays, layout):
            want = (twin.random(n) if high is None
                    else twin.integers(0, high, n))
            assert np.array_equal(array[i], want)
    assert got._gen.bit_generator.state == twin._gen.bit_generator.state


def test_rounds_refuse_bounds_outside_32_bits():
    s = stream(1, "rounds")
    for high in (0, 2 ** 32 + 1):
        with pytest.raises(ValueError):
            s.rounds(2, [(high, 3)])
    assert [a.shape for a in s.rounds(0, [(7, 3), (None, 2)])] == [(0, 3),
                                                                   (0, 2)]


# Spans around the scalar fast path's edges: 1 draws nothing, 2**32 - 1 is
# its largest, 2**31 + 5 rejects about half its draws, and 2**32 and
# 2**32 + 1 are numpy's own 32- and 64-bit paths.
SPANS = [1, 2, 3, 2 ** 31 + 5, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1]
LOWS = [0, -7, -2 ** 40, -2 ** 63, 2 ** 63 - 2 ** 31]
_bounds = st.tuples(st.sampled_from(LOWS), st.sampled_from(SPANS)).map(
    lambda ls: (ls[0], ls[0] + ls[1]))
_call = st.one_of(
    st.tuples(st.just("integers"), _bounds),
    # numpy-int and bool bounds keep numpy's call.
    st.tuples(st.just("integers"), _bounds.map(
        lambda lh: (np.int64(lh[0]), lh[1]) if lh[1] <= 2 ** 63 else lh)),
    st.tuples(st.just("integers"), st.sampled_from(
        [(False, True), (0, True), (np.int32(-3), 5), (2, np.uint8(9))])),
    st.tuples(st.just("random"), st.just(())),
    st.tuples(st.just("shuffle"), st.integers(0, 6)),
    st.tuples(st.just("integers_n"), st.tuples(st.sampled_from(SPANS),
                                               st.integers(0, 5))),
    st.tuples(st.just("random_n"), st.integers(0, 5)),
    st.tuples(st.just("uniform_n"), st.integers(0, 3)),
    st.tuples(st.just("exponential_n"), st.integers(0, 3)),
    st.tuples(st.just("rounds"), st.tuples(
        st.integers(0, 3),
        st.lists(st.tuples(st.sampled_from([None, 3, 2 ** 31 + 5]),
                           st.integers(0, 3)), min_size=1, max_size=3))))


def _make(s, op, arg):
    """One call on stream `s`: its value or the exception type it raised.
    The twin makes a `rounds` call as the calls themselves."""
    try:
        if op == "integers":
            return s.integers(*arg)
        if op == "random":
            return s.random()
        if op == "shuffle":
            x = list(range(arg))
            s.shuffle(x)
            return x
        if op == "integers_n":
            return s.integers(0, *arg)
        if op == "random_n":
            return s.random(arg)
        if op == "uniform_n":
            return s.uniform(-1.0, 2.0, arg)
        if op == "exponential_n":
            return s.exponential(1.5, arg)
        count, layout = arg
        if isinstance(s, RngStream):
            return s.rounds(count, layout)
        out = [np.empty((count, n), np.float64 if high is None else np.int64)
               for high, n in layout]
        for r in range(count):
            for a, (high, n) in zip(out, layout):
                a[r] = s.random(n) if high is None else s.integers(0, high, n)
        return out
    except ValueError as err:
        return type(err)


def _same(a, b) -> bool:
    if isinstance(a, list) and a and isinstance(a[0], np.ndarray):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       calls=st.lists(_call, min_size=1, max_size=40))
def test_scalar_draws_match_numpys_calls(seed, calls):
    """Random interleavings of every draw against a twin that makes each
    one through numpy's Generator: equal values of equal type, and equal
    generator states, after every call."""
    s, twin = stream(seed, "twin"), NumpyStream(seed, "twin")
    for op, arg in calls:
        got, want = _make(s, op, arg), _make(twin, op, arg)
        assert _same(got, want), (op, arg, got, want)
        assert s._gen.bit_generator.state == twin.gen.bit_generator.state


def test_scalar_integers_reject_as_numpy_does():
    """Span 2**31 + 5 rejects about half its 32-bit draws; 3 * 2**30 a
    quarter.  Thousands of draws take the redraw loop many times."""
    s, twin = stream(5, "lemire"), NumpyStream(5, "lemire")
    for i in range(4000):
        low = -(i % 3)
        span = (2 ** 31 + 5, 3 * 2 ** 30, 7)[i % 3]
        assert s.integers(low, low + span) == twin.integers(low, low + span)
        if i % 5 == 0:
            assert s.random() == twin.random()
    assert s._gen.bit_generator.state == twin.gen.bit_generator.state


def _random_imports(tree: ast.Module) -> list[str]:
    """The lines of a module that import ``random`` or ``numpy.random``,
    or read ``numpy.random`` through a name bound to numpy."""
    numpy_names = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                if alias.name in ("random", "numpy.random"):
                    found.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if (node.module in ("random", "numpy.random")
                    or node.module == "numpy" and "random" in names):
                found.append(f"line {node.lineno}: from {node.module}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in numpy_names):
            found.append(f"line {node.lineno}: {node.value.id}.random")
    return found


def test_only_rng_draws_random_numbers():
    """Every draw goes through RngStream: no other module under src/
    imports ``random`` or ``numpy.random``, or reads ``np.random``."""
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "rng.py":
            continue
        hits = _random_imports(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[str(path.relative_to(ROOT))] = hits
    assert found == {}


def test_random_import_guard_finds_each_form():
    tree = ast.parse("import random\n"
                     "import numpy as np\n"
                     "from numpy.random import default_rng\n"
                     "from numpy import random as npr, pi\n"
                     "import numpy.random\n"
                     "g = np.random.default_rng(1)\n"
                     "x = np.pi\n")
    assert [hit.split(":")[0] for hit in _random_imports(tree)] == [
        "line 1", "line 3", "line 4", "line 5", "line 6"]
