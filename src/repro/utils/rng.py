"""Deterministic random-number management.

Fault-injection campaigns repeat the same experiment hundreds of times; every
repetition must be reproducible and independent.  ``RngFactory`` derives
independent :class:`numpy.random.Generator` streams from a single seed using
``numpy``'s ``SeedSequence`` spawning, so an experiment can hand each agent,
each environment and each fault injector its own stream without the streams
ever colliding.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

RngLike = Union[int, None, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: RngLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an integer seed, ``None`` (fresh entropy), an existing generator
    (returned unchanged) or a ``SeedSequence``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def child_seeds(rng: np.random.Generator, count: int) -> np.ndarray:
    """The ``count`` seeds :func:`spawn_rngs` draws from ``rng`` for its children.

    A caller that needs no children but must leave ``rng`` where
    :func:`spawn_rngs` leaves it makes this draw alone.
    """
    return rng.integers(0, 2**63 - 1, size=count)


def spawn_rngs(seed: RngLike, count: int) -> List[np.random.Generator]:
    """Create ``count`` statistically independent generators from ``seed``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing independent seeds from the parent stream.
        return [np.random.default_rng(int(s)) for s in child_seeds(seed, count)]
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


class RngFactory:
    """Hierarchical source of named, reproducible random streams.

    Streams are derived from the root seed and a string key, so the same
    (seed, key) pair always yields the same stream regardless of the order in
    which streams are requested.  This keeps multi-agent experiments
    reproducible even when the number of agents or the set of instrumented
    components changes.
    """

    def __init__(self, seed: Optional[int] = 0) -> None:
        self._seed = seed
        self._root = np.random.SeedSequence(seed)

    @property
    def seed(self) -> Optional[int]:
        return self._seed

    def stream(self, *key: Union[str, int]) -> np.random.Generator:
        """Return a generator uniquely determined by the root seed and ``key``."""
        digest = self._key_entropy(key)
        sequence = np.random.SeedSequence(entropy=self._root.entropy, spawn_key=digest)
        return np.random.default_rng(sequence)

    def streams(self, prefix: Union[str, int], count: int) -> List[np.random.Generator]:
        """Return ``count`` generators keyed ``(prefix, 0..count-1)``."""
        return [self.stream(prefix, index) for index in range(count)]

    @staticmethod
    def _key_entropy(key: Sequence[Union[str, int]]) -> tuple:
        parts: List[int] = []
        for item in key:
            if isinstance(item, int):
                parts.append(item & 0xFFFFFFFF)
            else:
                # Stable 32-bit hash of the string (Python's hash() is salted).
                acc = 2166136261
                for ch in str(item).encode("utf8"):
                    acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
                parts.append(acc)
        return tuple(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RngFactory(seed={self._seed!r})"

