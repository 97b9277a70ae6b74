"""Experiment scales.

The GridWorld and DroneNav plan builders take a *scale* object describing
the workload size (agents, episodes, evaluation attempts, repetition
counts...).  Three presets are provided:

* ``tiny()``   — seconds-scale, used by the test suite,
* ``fast()``   — tens-of-seconds scale, the default for the benchmark harness,
* ``paper()``  — the sizes reported in the paper (12 GridWorld agents trained
  for 1000 episodes with 1000-repetition fault campaigns, 4 drones fine-tuned
  for thousands of episodes with 100 repetitions).  Paper scale is provided
  for completeness; running it requires hours of CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple


@dataclass(frozen=True)
class GridWorldScale:
    """Sizing of GridWorld FRL experiments."""

    agent_count: int = 4
    grid_size: int = 10
    episodes: int = 150
    max_steps: int = 80
    hidden_sizes: Tuple[int, ...] = (24, 24)
    learning_rate: float = 1e-2
    epsilon_decay_episodes: int = 100
    communication_interval: int = 2
    evaluation_attempts: int = 10
    repeats: int = 1
    observation_mode: str = "goal_direction"
    datatype: str = "Q(1,2,5)"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.agent_count <= 0 or self.episodes <= 0 or self.evaluation_attempts <= 0:
            raise ValueError("agent_count, episodes and evaluation_attempts must be positive")
        if self.repeats <= 0:
            raise ValueError("repeats must be positive")

    def with_agents(self, agent_count: int) -> "GridWorldScale":
        return replace(self, agent_count=agent_count)

    def with_seed(self, seed: int) -> "GridWorldScale":
        return replace(self, seed=seed)

    @classmethod
    def tiny(cls) -> "GridWorldScale":
        """Seconds-scale configuration for unit/integration tests."""
        return cls(
            agent_count=2,
            episodes=50,
            max_steps=50,
            hidden_sizes=(16, 16),
            epsilon_decay_episodes=30,
            evaluation_attempts=5,
        )

    @classmethod
    def fast(cls) -> "GridWorldScale":
        """Default benchmark configuration (tens of seconds per experiment)."""
        return cls()

    @classmethod
    def paper(cls) -> "GridWorldScale":
        """The sizes used in the paper (hours of CPU time)."""
        return cls(
            agent_count=12,
            episodes=1000,
            max_steps=100,
            hidden_sizes=(32, 32),
            epsilon_decay_episodes=500,
            communication_interval=1,
            evaluation_attempts=1000,
            repeats=1000,
        )


@dataclass(frozen=True)
class DroneScale:
    """Sizing of DroneNav FRL experiments.

    There is no evaluation attempt count: a greedy flight draws nothing and
    starts from a fixed pose, so each (policy, world) pair flies once.
    """

    drone_count: int = 2
    image_height: int = 8
    image_width: int = 16
    conv_channels: Tuple[int, ...] = (4, 8, 8)
    fc_hidden: int = 32
    corridor_length: float = 900.0
    corridor_half_width: float = 25.0
    obstacle_density: float = 0.0015
    max_steps: int = 450
    fine_tune_episodes: int = 8
    communication_interval: int = 2
    learning_rate: float = 5e-4
    repeats: int = 1
    datatype: str = "Q(1,7,8)"
    seed: int = 0
    pretrain_collection_episodes: int = 3
    pretrain_epochs: int = 8
    pretrain_dagger_iterations: int = 3

    def __post_init__(self) -> None:
        if self.drone_count <= 0 or self.fine_tune_episodes < 0:
            raise ValueError("drone_count must be positive and fine_tune_episodes non-negative")
        if self.repeats <= 0:
            raise ValueError("repeats must be positive")

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return (3, self.image_height, self.image_width)

    def with_drones(self, drone_count: int) -> "DroneScale":
        return replace(self, drone_count=drone_count)

    def with_seed(self, seed: int) -> "DroneScale":
        return replace(self, seed=seed)

    @classmethod
    def tiny(cls) -> "DroneScale":
        """Seconds-scale configuration for unit/integration tests."""
        return cls(
            drone_count=2,
            max_steps=120,
            corridor_length=300.0,
            fine_tune_episodes=2,
            pretrain_collection_episodes=2,
            pretrain_epochs=3,
            pretrain_dagger_iterations=1,
        )

    @classmethod
    def fast(cls) -> "DroneScale":
        """Default benchmark configuration (tens of seconds per experiment)."""
        return cls()

    @classmethod
    def paper(cls) -> "DroneScale":
        """The sizes used in the paper (Unreal/AirSim scale; days of CPU time)."""
        return cls(
            drone_count=4,
            image_height=180,
            image_width=320,
            conv_channels=(32, 64, 64),
            fc_hidden=256,
            corridor_length=2000.0,
            max_steps=3000,
            fine_tune_episodes=6000,
            repeats=100,
        )
