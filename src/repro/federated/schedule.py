"""Communication-interval scheduling.

Agents upload their policies every ``base_interval`` episodes.  The paper's
Fig. 6b study multiplies the interval by 2x or 3x after a switch-over episode
(the 2000th) once drones mostly exploit, trading resilience against
communication cost.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CommunicationSchedule:
    """Episode-indexed communication policy."""

    base_interval: int = 1
    multiplier: int = 1
    switch_episode: int = 0

    def __post_init__(self) -> None:
        if self.base_interval <= 0:
            raise ValueError(f"base_interval must be positive, got {self.base_interval}")
        if self.multiplier <= 0:
            raise ValueError(f"multiplier must be positive, got {self.multiplier}")
        if self.switch_episode < 0:
            raise ValueError(f"switch_episode must be non-negative, got {self.switch_episode}")

    def interval_at(self, episode: int) -> int:
        """Communication interval in effect at ``episode``."""
        if episode < 0:
            raise ValueError(f"episode must be non-negative, got {episode}")
        if self.multiplier > 1 and episode >= self.switch_episode:
            return self.base_interval * self.multiplier
        return self.base_interval

    def should_communicate(self, episode: int) -> bool:
        """True when a communication round happens at the end of ``episode``."""
        interval = self.interval_at(episode)
        return (episode + 1) % interval == 0
