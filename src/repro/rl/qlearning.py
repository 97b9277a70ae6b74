"""NN-based Q-learning agent for the GridWorld navigation task.

The GridWorld policy in the paper is a small neural network trained with a
"widely used NN-based method"; we use Q-learning with an MLP Q-network,
ε-greedy exploration with a decaying schedule, and a small replay buffer for
stable updates.  The learned Q-network *is* the policy that the federated
server aggregates and that the fault injector corrupts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.envs.base import Environment
from repro.nn import Adam, HuberLoss, Sequential, build_gridworld_q_network
from repro.rl.base import Agent, EpisodeStats, outcome_to_stats
from repro.rl.exploration import EpsilonSchedule, LinearEpsilonDecay
from repro.rl.replay import ReplayBuffer
from repro.utils.rng import as_rng


@dataclass(frozen=True)
class QLearningConfig:
    """Hyper-parameters of the GridWorld Q-learning agent."""

    observation_size: int = 6
    action_count: int = 4
    hidden_sizes: tuple = (32, 32)
    learning_rate: float = 1e-2
    discount: float = 0.9
    batch_size: int = 16
    replay_capacity: int = 4000
    warmup_transitions: int = 32
    updates_per_step: int = 1
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_episodes: int = 150

    def __post_init__(self) -> None:
        if not 0.0 < self.discount < 1.0:
            raise ValueError(f"discount must be in (0, 1), got {self.discount}")
        if self.batch_size <= 0 or self.replay_capacity <= 0:
            raise ValueError("batch_size and replay_capacity must be positive")


class QLearningAgent(Agent):
    """ε-greedy Q-learning over a small MLP Q-network."""

    def __init__(
        self,
        config: Optional[QLearningConfig] = None,
        epsilon_schedule: Optional[EpsilonSchedule] = None,
        rng=None,
    ) -> None:
        self.config = config or QLearningConfig()
        self._rng = as_rng(rng)
        self.network: Sequential = build_gridworld_q_network(
            observation_size=self.config.observation_size,
            action_count=self.config.action_count,
            hidden_sizes=self.config.hidden_sizes,
            rng=self._rng,
        )
        self.optimizer = Adam(self.network.parameters(), learning_rate=self.config.learning_rate)
        self.loss_fn = HuberLoss()
        self.replay = ReplayBuffer(capacity=self.config.replay_capacity, rng=self._rng)
        self.epsilon_schedule = epsilon_schedule or LinearEpsilonDecay(
            start=self.config.epsilon_start,
            end=self.config.epsilon_end,
            decay_episodes=self.config.epsilon_decay_episodes,
        )
        self._epsilon = self.epsilon_schedule.value(0)
        self._episode_index = 0

    # ------------------------------------------------------------------ acting
    @property
    def exploration_rate(self) -> float:
        """The current episode's epsilon from the schedule."""
        return self._epsilon

    def begin_episode(self, episode_index: int) -> None:
        """Advance the epsilon schedule to ``episode_index``."""
        self._episode_index = episode_index
        self._epsilon = self.epsilon_schedule.value(episode_index)

    def q_values(self, observation: np.ndarray) -> np.ndarray:
        """The network's Q-value row for one observation."""
        observation = np.asarray(observation, dtype=np.float64).reshape(1, -1)
        return self.network.forward(observation)[0]

    def select_action(self, observation: np.ndarray, explore: bool = True) -> int:
        """Epsilon-greedy action; greedy only when ``explore`` is false."""
        if explore and self._rng.random() < self._epsilon:
            return int(self._rng.integers(0, self.config.action_count))
        return self.greedy_action_from(self.q_values(observation))

    def greedy_action_from(self, q_values: np.ndarray) -> int:
        """Greedy action from precomputed Q-values (draws no random numbers)."""
        return int(np.argmax(q_values))

    # ---------------------------------------------------------------- learning
    def _update_from_replay(self) -> float:
        if len(self.replay) < max(self.config.warmup_transitions, self.config.batch_size):
            return 0.0
        observations, actions, rewards, next_observations, dones = self.replay.sample_arrays(
            self.config.batch_size
        )
        next_q = self.network.forward(next_observations)
        targets_for_actions = rewards + self.config.discount * next_q.max(axis=1) * (~dones)
        predictions = self.network.forward(observations)
        targets = predictions.copy()
        targets[np.arange(len(actions)), actions] = targets_for_actions
        loss, grad = self.loss_fn(predictions, targets)
        self.network.zero_grad()
        self.network.backward(grad, input_grad=False)
        self.optimizer.step()
        return loss

    def run_episode(self, env: Environment, train: bool = True) -> EpisodeStats:
        """Play one episode; when training, learn from replay each step."""
        observation = env.reset()
        total_reward = 0.0
        steps = 0
        last_info: Dict[str, object] = {}
        done = False
        while not done:
            action = self.select_action(observation, explore=train)
            result = env.step(action)
            total_reward += result.reward
            steps += 1
            last_info = result.info
            if train:
                self.replay.add(observation, action, result.reward, result.observation, result.done)
                for _ in range(self.config.updates_per_step):
                    self._update_from_replay()
            observation = result.observation
            done = result.done
        return outcome_to_stats(total_reward, steps, last_info)

    # ------------------------------------------------------------- parameters
    def state_dict(self) -> Dict[str, np.ndarray]:
        """The network parameters, keyed by layer."""
        return self.network.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Replace the network parameters with ``state``."""
        self.network.load_state_dict(state)
