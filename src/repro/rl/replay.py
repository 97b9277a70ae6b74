"""Experience replay buffer for value-based learning."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.utils.rng import as_rng


@dataclass(frozen=True)
class Transition:
    """One environment transition."""

    observation: np.ndarray
    action: int
    reward: float
    next_observation: np.ndarray
    done: bool


class ReplayBuffer:
    """Fixed-capacity FIFO buffer with uniform random sampling.

    Transitions live in five ring arrays: observations, int64 actions,
    float64 rewards, next observations and bool dones.  The first
    :meth:`add` after construction or :meth:`clear` allocates them from its
    transition's shapes and dtypes, so a buffer that never trains holds no
    rows.  Logical index ``i`` is the ``i``-th oldest stored transition;
    once the ring is full the oldest sits in the slot the next ``add``
    overwrites.
    """

    def __init__(self, capacity: int = 10_000, rng=None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rng = as_rng(rng)
        self._rings: Optional[Tuple[np.ndarray, ...]] = None
        self._next = 0
        self._size = 0

    def add(
        self,
        observation: np.ndarray,
        action: int,
        reward: float,
        next_observation: np.ndarray,
        done: bool,
    ) -> None:
        """Write one transition into the ring, evicting the oldest at capacity.

        Raises ``ValueError`` when the observation or next observation differs
        in shape or dtype from the first transition's: a ring row would
        silently broadcast or cast it.
        """
        observation = np.asarray(observation)
        next_observation = np.asarray(next_observation)
        action, reward, done = int(action), float(reward), bool(done)
        if self._rings is None:
            self._rings = (
                np.empty((self.capacity,) + observation.shape, observation.dtype),
                np.empty(self.capacity, np.int64),
                np.empty(self.capacity, np.float64),
                np.empty((self.capacity,) + next_observation.shape, next_observation.dtype),
                np.empty(self.capacity, bool),
            )
        observations, actions, rewards, next_observations, dones = self._rings
        _check_row("observation", observation, observations)
        _check_row("next_observation", next_observation, next_observations)
        slot = self._next
        observations[slot] = observation
        actions[slot] = action
        rewards[slot] = reward
        next_observations[slot] = next_observation
        dones[slot] = done
        self._next = (slot + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def __len__(self) -> int:
        return self._size

    def sample(self, batch_size: int) -> List[Transition]:
        """Draw ``batch_size`` distinct transitions uniformly at random."""
        observations, actions, rewards, next_observations, dones = self.sample_arrays(batch_size)
        return [
            Transition(*fields)
            for fields in zip(observations, actions.tolist(), rewards.tolist(),
                              next_observations, dones.tolist())
        ]

    def sample_arrays(
        self, batch_size: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``batch_size`` distinct transitions as five stacked arrays.

        The draw is ``rng.choice(len(self), batch_size, replace=False)`` over
        logical indices; each is mapped to its ring slot and every array is
        one gather.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if batch_size > self._size:
            raise ValueError(
                f"cannot sample {batch_size} transitions from a buffer of {self._size}"
            )
        slots = self._rng.choice(self._size, size=batch_size, replace=False)
        # Until the ring wraps, slot i holds the i-th oldest transition.
        if self._size == self.capacity and self._next:
            slots = (slots + self._next) % self.capacity
        observations, actions, rewards, next_observations, dones = self._rings
        return (observations[slots], actions[slots], rewards[slots],
                next_observations[slots], dones[slots])

    def clear(self) -> None:
        """Drop every stored transition; the next ``add`` allocates afresh."""
        self._rings = None
        self._next = 0
        self._size = 0


def _check_row(field: str, value: np.ndarray, ring: np.ndarray) -> None:
    if value.shape != ring.shape[1:] or value.dtype != ring.dtype:
        raise ValueError(
            f"{field} of shape {value.shape} and dtype {value.dtype} does not match "
            f"the buffer's {ring.shape[1:]} {ring.dtype} rows"
        )
