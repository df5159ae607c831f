"""Named deterministic random streams.

Every random draw in the simulator comes from an ``RngStream`` derived from
a 64-bit scenario seed and a short text label.  The generator is numpy's
PCG64, keyed through ``SeedSequence`` with the seed plus a SHA-256 digest of
the label, so the same (seed, label) pair produces the same draw sequence on
every platform and independent labels give statistically independent streams.

``RngStream.rounds`` returns, stacked, what a fixed list of ``integers`` and
``random`` calls repeated round after round would return, and leaves the
generator in the state the calls would.  When the stream holds no cached
32-bit half and every bounded call takes an even number of draws, it
decodes the rounds from one read of raw 64-bit words the way numpy's
Generator makes them from PCG64 (O'Neill, 2014): a double from the top 53
bits of a word, a bounded integer from a 32-bit half by Lemire's
multiply-shift with rejection (ACM TOMACS, 2019), low half first.  numpy's
own calls make every other round, and every round from one with a rejected
draw on.

A scalar ``integers`` whose span fits 32 bits and a scalar ``random`` skip
numpy's per-call dispatch: they call the bit generator's documented C entry
points (``next_uint32``, ``next_double``) and run the same Lemire loop numpy
runs, so they return what numpy's calls would, of the same Python type,
and the buffered 32-bit half stays inside PCG64's own state.  These calls
take no lock, so a stream is drawn from by one thread only: each run builds
its own streams, and the loopback chat stub builds its engine, and so its
stream, on its server thread.

Golden first draws for a reference stream are frozen in
``docs/rng-golden.json`` and asserted by the test suite.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib

import numpy as np

_U64_MASK = (1 << 64) - 1
_U32_MAX = (1 << 32) - 1
# The scalar integers() fast path returns int64 values, as numpy does.
_I64_MIN, _I64_END = -(1 << 63), 1 << 63
# Signatures of PCG64's next_uint32 and next_double.
_NEXT_U32 = ctypes.PYFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.PYFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


def _label_words(label: str) -> list[int]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


class RngStream:
    """Deterministic random stream keyed by (seed, label).

    Thin wrapper over ``numpy.random.Generator`` (PCG64) that remembers its
    key so child streams can be derived by extending the label path.  Scalar
    ``integers`` (Python-int bounds, span 2 to 2**32 - 1) and scalar
    ``random`` draw through the bit generator's C entry points, bound on
    first use; they are not locked, so one thread draws from a stream.
    """

    def __init__(self, seed: int, label: str):
        self.seed = int(seed) & _U64_MASK
        self.label = label
        ss = np.random.SeedSequence(entropy=[self.seed, *_label_words(label)])
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, label={self.label!r})"

    def substream(self, sublabel: str) -> "RngStream":
        """Derive an independent stream; the child label is ``label/sublabel``."""
        return RngStream(self.seed, f"{self.label}/{sublabel}")

    # Draw helpers delegate to the underlying Generator.  Only the methods
    # the simulator actually uses are exposed, keeping the surface auditable.

    def random(self, size=None):
        if size is None:
            return self._next_double()
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None):
        """Integers in [low, high) like numpy's half-open convention."""
        if (size is None and type(low) is int and type(high) is int
                and 2 <= high - low <= _U32_MAX
                and _I64_MIN <= low and high <= _I64_END):
            # numpy's bounded 32-bit Lemire draw: the high word of a 32-bit
            # half times the span, redrawn while the low word falls below
            # (2**32 - span) % span.
            span = high - low
            m = self._next32() * span
            if (m & _U32_MAX) < span:
                threshold = ((1 << 32) - span) % span
                while (m & _U32_MAX) < threshold:
                    m = self._next32() * span
            return low + (m >> 32)
        out = self._gen.integers(low, high, size=size)
        return int(out) if size is None else out

    def exponential(self, scale: float = 1.0, size=None):
        return self._gen.exponential(scale, size)

    def shuffle(self, x) -> None:
        self._gen.shuffle(x)

    # The first scalar draw binds both C entry points as instance
    # attributes, which shadow these two methods from then on.

    def _next32(self) -> int:
        self._bind()
        return self._next32()

    def _next_double(self) -> float:
        self._bind()
        return self._next_double()

    def _bind(self) -> None:
        c = self._gen.bit_generator.ctypes
        self._next32 = _held(_NEXT_U32, c.next_uint32, c.state_address)
        self._next_double = _held(_NEXT_DOUBLE, c.next_double,
                                  c.state_address)

    def rounds(self, count: int, layout) -> list[np.ndarray]:
        """The draws of `count` repetitions of a fixed list of calls.

        `layout` lists one round's calls in order, each as (high, n): the
        call ``integers(0, high, n)``, or ``random(n)`` when `high` is None.
        Returns one array per call, of shape (count, n), holding what the
        calls made round after round would return, and leaves the generator
        where they would leave it.  Rounds are decoded from raw words when
        the stream holds no cached 32-bit half and each bounded call takes
        an even number of draws.  The calls themselves make every other
        round, and remake a decoded block up to and including its first
        round with a rejected bounded draw.
        """
        calls = []
        for high, n in layout:
            if high is not None and not 1 <= high <= 1 << 32:
                raise ValueError(f"high must be in [1, 2**32], got {high}")
            calls.append((high, int(n)))
        out = [np.empty((count, n), np.float64 if high is None else np.int64)
               for high, n in calls]
        done = 0
        while done < count:
            done = self._decode(calls, out, done, count)
        return out

    def _decode(self, calls, out, done: int, count: int) -> int:
        """Decode rounds `done` to `count - 1` as `rounds` does, or make
        with the calls the rounds `rounds` does not decode.  Returns the
        number of rounds now in `out`."""
        bg = self._gen.bit_generator
        state = bg.state
        plan = _RoundPlan(calls)
        if state["has_uint32"] or not plan.even:
            return self._call(calls, out, done, done + 1)
        reps = count - done
        words = bg.random_raw(reps * plan.words).reshape(reps, plan.words)
        # Each word as its (low, high) 32-bit halves, whatever the byte order.
        halves = words.astype("<u8", copy=False).view("<u4")
        rejected = plan.decode(words, halves, [a[done:] for a in out])
        if rejected is not None:
            bg.state = state
            return self._call(calls, out, done, done + rejected + 1)
        if plan.split is not None:
            # PCG64 keeps the last half it handed out.
            state = bg.state
            state["uinteger"] = int(halves[-1, 2 * plan.split + 1])
            bg.state = state
        return count

    def _call(self, calls, out, start: int, stop: int) -> int:
        """Make rounds `start` to `stop - 1` with numpy's own calls;
        returns `stop`."""
        for r in range(start, stop):
            for a, (high, n) in zip(out, calls):
                a[r] = (self._gen.random(n) if high is None
                        else self._gen.integers(0, high, n))
        return stop


class _RoundPlan:
    """Where one round's draws sit in the raw words it reads, for a round
    that starts with no cached 32-bit half.

    PCG64 makes a double from a whole word, ``(w >> 11) * 2**-53``, and a
    bounded integer in [0, high) from a 32-bit half by Lemire's multiply
    and shift, low half first.  ``high == 1`` reads nothing.  The plan is
    `even` when every bounded call takes an even number of halves, so no
    half is left cached for the next call or round; only such a round is
    decoded.
    """

    def __init__(self, calls):
        self.steps = []  # per call: (high, n, its first word)
        self.split = None  # the last word a bounded draw splits
        self.even = True
        at = 0
        for high, n in calls:
            self.steps.append((high, n, at))
            if high is None:
                at += n
            elif high > 1 and n:
                self.even &= n % 2 == 0
                at += n // 2
                self.split = at - 1
        self.words = at

    def decode(self, words, halves, out) -> int | None:
        """Write the round's draws from each row of `words` (and `halves`,
        the same words as (low, high) 32-bit pairs) into the rows of `out`,
        one array per call.  Returns the first row with a rejected draw,
        or None."""
        bad = []
        for (high, n, first), a in zip(self.steps, out):
            if high is None:
                # In place: no later call reads these words.  (w >> 11) is
                # below 2**53, so its int64 view reads the same value.
                src = words[:, first:first + n]
                np.right_shift(src, 11, out=src)
                np.multiply(src.view(np.int64), 2.0 ** -53, out=a)
                continue
            if high == 1:
                a[...] = 0
                continue
            src = halves[:, 2 * first:2 * first + n]
            # Lemire: the draw is the high word of half * high, rejected if
            # the low word falls below `threshold`.
            threshold = ((1 << 32) - high) % high
            if threshold:
                # uint32 products wrap: they are the low words.
                hit = np.multiply(src, np.uint32(high)) < threshold
                if hit.any():
                    bad.append(int(hit.any(axis=1).argmax()))
            product = a.view(np.uint64)
            np.multiply(src, np.uint64(high), out=product)
            np.right_shift(product, 32, out=product)
        return min(bad, default=None)


def _held(proto, entry, state: int):
    """The bit generator's C function `entry`, bound to the generator's
    `state` and called with the GIL held: the wrapper ``ctypes`` hands out
    releases and retakes it on every call, about a fifth of a draw's cost."""
    return functools.partial(proto(ctypes.cast(entry, ctypes.c_void_p).value),
                             state)


def stream(seed: int, label: str) -> RngStream:
    """Build the deterministic stream for (seed, label)."""
    return RngStream(seed, label)
