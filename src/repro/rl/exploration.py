"""Exploration schedules.

The paper's on-device procedure has two phases: a *training* phase in which
the exploration-to-exploitation ratio decreases, and an *inference* phase of
pure greedy exploitation.  :class:`LinearEpsilonDecay` models the first;
greedy evaluation (:mod:`repro.rl.rollout`) models the second.
"""

from __future__ import annotations


class EpsilonSchedule:
    """Maps an episode index to an exploration rate ε ∈ [0, 1]."""

    def value(self, episode: int) -> float:
        """The exploration rate to use for ``episode``."""
        raise NotImplementedError

    def __call__(self, episode: int) -> float:
        return self.value(episode)


class LinearEpsilonDecay(EpsilonSchedule):
    """Linearly decay ε from ``start`` to ``end`` over ``decay_episodes``."""

    def __init__(self, start: float = 1.0, end: float = 0.05, decay_episodes: int = 500) -> None:
        if not 0.0 <= end <= start <= 1.0:
            raise ValueError("require 0 <= end <= start <= 1")
        if decay_episodes <= 0:
            raise ValueError(f"decay_episodes must be positive, got {decay_episodes}")
        self.start = start
        self.end = end
        self.decay_episodes = decay_episodes

    def value(self, episode: int) -> float:
        """The linearly interpolated rate, clamped to ``end`` after decay."""
        if episode < 0:
            raise ValueError(f"episode must be non-negative, got {episode}")
        if episode >= self.decay_episodes:
            return self.end
        fraction = episode / self.decay_episodes
        return self.start + fraction * (self.end - self.start)
