"""Named deterministic random streams.

Every random draw in the simulator comes from an ``RngStream`` derived from
a 64-bit scenario seed and a short text label.  The generator is numpy's
PCG64, keyed through ``SeedSequence`` with the seed plus a SHA-256 digest of
the label, so the same (seed, label) pair produces the same draw sequence on
every platform and independent labels give statistically independent streams.

Golden first draws for a reference stream are frozen in
``docs/rng-golden.json`` and asserted by the test suite.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64_MASK = (1 << 64) - 1


def _label_words(label: str) -> list[int]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


class RngStream:
    """Deterministic random stream keyed by (seed, label).

    Thin wrapper over ``numpy.random.Generator`` (PCG64) that remembers its
    key so child streams can be derived by extending the label path.
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

    def u64(self) -> int:
        return int(self._gen.integers(0, _U64_MASK, dtype=np.uint64, endpoint=True))

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None):
        """Integers in [low, high) like numpy's half-open convention."""
        out = self._gen.integers(low, high, size=size)
        return int(out) if size is None else out

    def exponential(self, scale: float = 1.0, size=None):
        return self._gen.exponential(scale, size)

    def shuffle(self, x) -> None:
        self._gen.shuffle(x)


def stream(seed: int, label: str) -> RngStream:
    """Build the deterministic stream for (seed, label)."""
    return RngStream(seed, label)
