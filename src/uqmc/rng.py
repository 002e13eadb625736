"""Counter-based random number streams.

Every logical draw index maps to a fixed (seed, stream_id, block) cell of
the Philox-4x64 keyed counter space, so a stream's i-th draw is the same
number no matter how the index range is chunked across batches or calls.
Streams are immutable values: consuming draws means asking for an
advanced copy, and splitting never touches the parent.
"""

from __future__ import annotations

import threading
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
    """The Philox key of a stream, as two ``uint64`` words."""
    return np.array(_key_words(seed, stream_id), dtype=np.uint64)


def _key_words(seed: int, stream_id: int) -> tuple[int, int]:
    """The two words of a stream's Philox key, as Python ints.

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
    return words


_local = threading.local()


def _thread_generator(block: int, key: tuple[int, int]) -> Generator:
    """This thread's Generator, its one Philox reset to lane 0 of ``block``
    under ``key``: the state ``Philox(counter=[block, 0, 0, 0], key=key)``
    starts in, without building a Philox (whose constructor also seeds an
    unused ``SeedSequence`` from OS entropy).  Each thread has its own, so
    threads drawing at the same time never share a state.
    """
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = Generator(Philox())
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [block, 0, 0, 0], "key": list(key)},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


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

    def uniforms(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n doubles in (0, 1), one per draw index: ((raw >> 11) + 0.5) * 2^-53
        of the raw 64-bit Philox output at each index.

        They are written into ``out`` when it is given (a C-contiguous
        float64 array of n elements) and into a new array otherwise.  They
        come from this thread's Philox (``_thread_generator``), reset to the
        block that holds ``counter``; it skips the ``counter & 3`` lanes of
        that block before numpy's fused ``random(out=)`` writes
        (raw >> 11) * 2^-53, and adding 2^-54 then rounds as the formula
        does, so the draws are the same bits either way.
        """
        if n < 0:
            raise ValueError("draw count must be non-negative")
        out = np.empty(n) if out is None else out
        if n:
            block = (self.counter >> 2) & _MASK64
            gen = _thread_generator(block, _key_words(self.seed, self.stream_id))
            if self.counter & 3:
                gen.bit_generator.random_raw(self.counter & 3)
            gen.random(out=out)
            out += 2.0**-54
        return out

    def generator(self) -> Generator:
        """A new numpy Generator at lane 0 of the Philox block that holds
        this stream's next draw index (``counter >> 2``): the state that
        ``uniforms`` resets its thread's Philox to before skipping the lanes
        before that index.

        For sequential consumers (MCMC chains, rejection loops) where
        per-index stability is not needed; determinism still holds for a
        fixed (seed, stream_id, counter).
        """
        bg = Philox(
            counter=[(self.counter >> 2) & _MASK64, 0, 0, 0],
            key=_philox_key(self.seed, self.stream_id),
        )
        return Generator(bg)
