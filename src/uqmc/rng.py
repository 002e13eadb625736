"""Counter-based random number streams.

Every logical draw index maps to a fixed (seed, stream_id, block) cell of
the Philox-4x64 keyed counter space, so a stream's i-th draw is the same
number no matter how the index range is chunked across batches or calls.
Streams are immutable values: consuming draws means asking for an
advanced copy, and splitting never touches the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .exceptions import InvalidParameterError

_MASK64 = (1 << 64) - 1
# Seeds at or above 2^53 lose low bits in the Philox key for about half of
# all child streams, and negative ones wrap to the top of the 64-bit range
# where they collide, so seeds are confined to [0, 2^53).
SEED_LIMIT = 1 << 53


def _mix64(z: int) -> int:
    """splitmix64 finalizer; decorrelates child stream ids."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _philox_key(seed: int, stream_id: int) -> np.ndarray:
    """The Philox key of a stream, as two ``uint64`` words.

    Streams were first keyed with the list ``[seed, stream_id]``, which
    numpy reads as int64 when both words are below 2^63 and as float64
    when one is not.  Seeds are below 2^53, so the key is exact for ids
    below 2^63; above, both words are rounded to float64 (the seed stays
    exact, the id keeps 53 significant bits).  An id within 1 024 of 2^64
    rounds to 2^64, which has no uint64 value; it wraps to 0.  No accepted
    seed's draws differ from those of the list key.
    """
    words = (seed, stream_id & _MASK64)
    if words[1] >= 1 << 63:
        words = tuple(int(float(w)) & _MASK64 for w in words)
    return np.array(words, dtype=np.uint64)


@dataclass(frozen=True)
class RngStream:
    """A splittable, counter-based random stream.

    Identical (seed, stream_id, counter) triples yield identical draws on
    every platform.  ``counter`` is the index of the next logical draw;
    four consecutive draws share one Philox block (lanes 0..3).
    """

    seed: int
    stream_id: int = 0
    counter: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < SEED_LIMIT:
            raise InvalidParameterError(f"seed must be in [0, 2**53), got {self.seed}")

    def split(self, child: int) -> "RngStream":
        """Derive an independent child stream; the parent is unchanged."""
        mixed = _mix64(((self.stream_id & _MASK64) + _mix64(child + 1)) & _MASK64)
        return RngStream(self.seed, mixed, 0)

    def advance(self, n: int) -> "RngStream":
        """Copy of this stream with the next n draw indices consumed."""
        return replace(self, counter=(self.counter + n) & _MASK64)

    def _raw(self, n: int) -> np.ndarray:
        """Raw 64-bit outputs for draw indices [counter, counter+n)."""
        if n < 0:
            raise ValueError("draw count must be non-negative")
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        first_block = self.counter >> 2
        lane = self.counter & 3
        n_blocks = (lane + n + 3) >> 2
        bg = Philox(
            counter=[first_block & _MASK64, 0, 0, 0],
            key=_philox_key(self.seed, self.stream_id),
        )
        raw = bg.random_raw(4 * n_blocks)
        return raw[lane : lane + n]

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in (0, 1), one per draw index."""
        raw = self._raw(n)
        return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def generator(self) -> Generator:
        """numpy Generator positioned at this stream state.

        For sequential consumers (MCMC chains, rejection loops) where
        per-index stability is not needed; determinism still holds for a
        fixed (seed, stream_id, counter).
        """
        bg = Philox(
            counter=[(self.counter >> 2) & _MASK64, 0, 0, 0],
            key=_philox_key(self.seed, self.stream_id),
        )
        return Generator(bg)
