"""Named, seeded random-number streams.

Every stochastic component in the library draws from its own named
stream derived deterministically from a single experiment seed. This
keeps experiments exactly reproducible *and* decoupled: adding draws to
one component (say, AP jitter) does not perturb another (say, the web
browsing script), because each stream has an independent generator.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterator

import numpy as np

#: Values per refill of :func:`buffered_draws`.
DRAW_CHUNK = 256


def _stable_key(name: str) -> int:
    """A stable 32-bit integer derived from ``name`` (not Python's hash)."""
    return zlib.crc32(name.encode("utf-8"))


class RngStreams:
    """Factory of independent, deterministic ``numpy`` generators.

    Example:
        >>> streams = RngStreams(seed=7)
        >>> jitter = streams.get("ap-jitter")
        >>> video = streams.get("video:client-3")
        >>> streams.get("ap-jitter") is jitter   # cached per name
        True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            sequence = np.random.SeedSequence([self.seed, _stable_key(name)])
            generator = np.random.default_rng(sequence)
            self._streams[name] = generator
        return generator

    def fork(self, salt: str) -> "RngStreams":
        """Derive a child family of streams (e.g. per experiment trial)."""
        return RngStreams(seed=(self.seed * 1_000_003 + _stable_key(salt)) % 2**63)


def buffered_draws(draw: Callable[[int], np.ndarray]) -> Callable[[], float]:
    """A no-argument callable returning ``draw``'s values one at a time.

    ``draw(n)`` is a sized ``Generator`` method (``rng.random``, or
    ``rng.uniform`` with its bounds bound); it is called for
    :data:`DRAW_CHUNK` values at a time, when the previous chunk runs
    out. numpy fills an array with the same bitstream consumption as
    repeated scalar calls, so on a stream that nothing else reads the
    values are exactly those of one scalar call per value, without the
    per-call ``Generator`` overhead.
    """

    def values() -> Iterator[float]:
        while True:
            yield from draw(DRAW_CHUNK).tolist()

    return values().__next__
