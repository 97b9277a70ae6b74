"""REINFORCE policy-gradient agent for the drone navigation task.

The paper trains the drone CNN policy offline with REINFORCE and fine-tunes it
online with transfer learning inside the federated system.  The policy network
ends in a softmax over the 25-element perception-based action space; the
agent samples actions from that distribution during training and acts greedily
(the argmax) during inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.envs.base import Environment
from repro.nn import Adam, Sequential, build_drone_policy_network
from repro.rl.base import Agent, EpisodeStats, outcome_to_stats
from repro.utils.rng import as_rng


@dataclass(frozen=True)
class ReinforceConfig:
    """Hyper-parameters of the drone REINFORCE agent."""

    input_shape: tuple = (3, 18, 32)
    action_count: int = 25
    conv_channels: tuple = (8, 16, 16)
    fc_hidden: int = 64
    learning_rate: float = 1e-3
    discount: float = 0.98
    entropy_bonus: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")


def discounted_returns(rewards: Sequence[float], discount: float) -> np.ndarray:
    """Reward-to-go returns G_t = sum_k gamma^k r_{t+k}."""
    returns = np.zeros(len(rewards), dtype=np.float64)
    running = 0.0
    for index in range(len(rewards) - 1, -1, -1):
        running = rewards[index] + discount * running
        returns[index] = running
    return returns


class ReinforceAgent(Agent):
    """Monte-Carlo policy gradient over a CNN softmax policy."""

    def __init__(self, config: Optional[ReinforceConfig] = None, rng=None) -> None:
        self.config = config or ReinforceConfig()
        self._rng = as_rng(rng)
        self.network: Sequential = build_drone_policy_network(
            input_shape=self.config.input_shape,
            action_count=self.config.action_count,
            conv_channels=self.config.conv_channels,
            fc_hidden=self.config.fc_hidden,
            rng=self._rng,
        )
        self.optimizer = Adam(self.network.parameters(), learning_rate=self.config.learning_rate)
        self._episode_index = 0

    # ------------------------------------------------------------------ acting
    def action_probabilities(self, observation: np.ndarray) -> np.ndarray:
        """The policy distribution over actions for one observation."""
        observation = np.asarray(observation, dtype=np.float64)
        if observation.ndim == 3:
            observation = observation[None, ...]
        return self.network.forward(observation)[0]

    def select_action(self, observation: np.ndarray, explore: bool = True) -> int:
        """Sample from the policy when exploring, else act greedily."""
        probabilities = self.action_probabilities(observation)
        if explore:
            return self.sample_action_from(probabilities)
        return self.greedy_action_from(probabilities)

    def sample_action_from(self, probabilities: np.ndarray) -> int:
        """Sample an exploration action from precomputed policy probabilities.

        This is the exploration branch of :meth:`select_action` split out so the
        lockstep trainer can batch the forward pass.
        :func:`~repro.rl.lockstep.sample_lane_actions` draws every lane in one
        pass that copies this ``choice``, and calls this method row by row when
        ``choice`` might refuse a row.
        """
        return int(self._rng.choice(len(probabilities), p=probabilities))

    def greedy_action_from(self, probabilities: np.ndarray) -> int:
        """Exploitation action from precomputed probabilities: their argmax, with no draw."""
        return int(np.argmax(probabilities))

    def begin_episode(self, episode_index: int) -> None:
        """Record the episode index (REINFORCE keeps no schedule state)."""
        self._episode_index = episode_index

    # ---------------------------------------------------------------- learning
    def _policy_gradient_step(
        self,
        observations: List[np.ndarray],
        actions: List[int],
        rewards: List[float],
    ) -> float:
        """One REINFORCE update over a full episode."""
        if not observations:
            return 0.0
        batch = np.stack(observations)
        action_array = np.asarray(actions, dtype=np.int64)
        returns = discounted_returns(rewards, self.config.discount)
        # Normalizing returns keeps the gradient scale stable across episodes.
        if returns.size > 1 and returns.std() > 1e-8:
            advantages = (returns - returns.mean()) / returns.std()
        else:
            advantages = returns - returns.mean()
        probabilities = self.network.forward(batch)
        clipped = np.clip(probabilities, 1e-8, 1.0)
        # Loss = -sum_t A_t log pi(a_t | s_t) - entropy_bonus * H(pi).
        loss = float(
            -(advantages * np.log(clipped[np.arange(len(action_array)), action_array])).mean()
        )
        grad = np.zeros_like(probabilities)
        grad[np.arange(len(action_array)), action_array] = (
            -advantages / clipped[np.arange(len(action_array)), action_array]
        )
        if self.config.entropy_bonus > 0:
            # d(-H)/dp = log p + 1 ; we *subtract* entropy from the loss.
            grad += self.config.entropy_bonus * (np.log(clipped) + 1.0)
        grad /= len(action_array)
        self.network.zero_grad()
        self.network.backward(grad, input_grad=False)
        self.optimizer.step()
        return loss

    def run_episode(self, env: Environment, train: bool = True) -> EpisodeStats:
        """Play one episode; when training, take one policy-gradient step."""
        observation = env.reset()
        observations: List[np.ndarray] = []
        actions: List[int] = []
        rewards: List[float] = []
        total_reward = 0.0
        steps = 0
        last_info: Dict[str, object] = {}
        done = False
        while not done:
            action = self.select_action(observation, explore=train)
            result = env.step(action)
            observations.append(observation)
            actions.append(action)
            rewards.append(result.reward)
            total_reward += result.reward
            steps += 1
            last_info = result.info
            observation = result.observation
            done = result.done
        if train:
            self._policy_gradient_step(observations, actions, rewards)
        return outcome_to_stats(total_reward, steps, last_info)

    # ------------------------------------------------------------- parameters
    def state_dict(self) -> Dict[str, np.ndarray]:
        """The network parameters, keyed by layer."""
        return self.network.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Replace the network parameters with ``state``."""
        self.network.load_state_dict(state)
