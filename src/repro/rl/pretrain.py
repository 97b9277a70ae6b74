"""Offline pre-training of the drone policy.

The paper first trains the drone CNN policy offline with REINFORCE and then
fine-tunes it online inside the federated system.  Training a CNN policy from
scratch with pure Monte-Carlo policy gradient takes far more environment
interaction than a CPU-only reproduction can afford, so the offline stage is
implemented as behaviour cloning of a depth-seeking expert pilot followed by
(optional) REINFORCE fine-tuning — the same "train offline, fine-tune online"
structure at a tractable cost.  The cloned CNN is a genuine image-to-action
policy; every fault-injection experiment operates on its weights and
activations exactly as it would on a purely RL-trained policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.envs.base import Environment
from repro.envs.dronenav import SPEED_FACTORS, YAW_DELTAS_DEG
from repro.rl.reinforce import ReinforceAgent
from repro.utils.rng import as_rng


class DroneExpertPilot:
    """Heuristic depth-seeking pilot used as the behaviour-cloning teacher.

    The pilot reads the same observation the CNN sees: channel 0's top row is
    the normalized ray-depth profile across the field of view.  It yaws toward
    the angular sector with the most clearance and modulates speed by the
    clearance straight ahead.
    """

    def __init__(self, caution: float = 0.65) -> None:
        if not 0.0 < caution <= 1.0:
            raise ValueError(f"caution must be in (0, 1], got {caution}")
        self.caution = caution

    def depth_profile(self, observation: np.ndarray) -> np.ndarray:
        """Normalized depth per image column (values in [0, 1])."""
        observation = np.asarray(observation)
        if observation.ndim != 3:
            raise ValueError(f"expected a (3, H, W) observation, got shape {observation.shape}")
        return observation[0, 0, :]

    def select_action(self, observation: np.ndarray) -> int:
        """Steer toward the sector with the best worst-case clearance."""
        depths = self.depth_profile(observation)
        width = depths.shape[0]
        sectors = np.array_split(np.arange(width), len(YAW_DELTAS_DEG))
        # Worst-case clearance per sector: conservative near obstacles.
        sector_depths = np.asarray([depths[idx].min() for idx in sectors])
        # Mild preference for flying straight when clearances are similar.
        preference = np.array([0.0, 0.02, 0.05, 0.02, 0.0])
        yaw_index = int(np.argmax(sector_depths + preference))
        centre = sectors[len(sectors) // 2]
        front_clearance = float(depths[centre].min())
        thresholds = (0.9, 0.75, 0.55, 0.35)
        speed_index = 0
        for index, threshold in enumerate(thresholds):
            if front_clearance >= threshold * self.caution:
                speed_index = len(SPEED_FACTORS) - 1 - index
                break
        return yaw_index * len(SPEED_FACTORS) + speed_index


@dataclass(frozen=True)
class PretrainConfig:
    """Behaviour-cloning hyper-parameters.

    ``dagger_iterations`` rounds of DAgger-style aggregation (roll out the
    cloned policy, label the visited states with the expert, retrain) correct
    the compounding error of plain behaviour cloning.
    """

    collection_episodes: int = 6
    max_samples: int = 4000
    epochs: int = 8
    batch_size: int = 64
    learning_rate: float = 2e-3
    exploration_noise: float = 0.05
    dagger_iterations: int = 2
    dagger_episodes: int = 2

    def __post_init__(self) -> None:
        if self.collection_episodes <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("collection_episodes, epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.exploration_noise < 1.0:
            raise ValueError("exploration_noise must be in [0, 1)")
        if self.dagger_iterations < 0 or self.dagger_episodes < 0:
            raise ValueError("dagger_iterations and dagger_episodes must be non-negative")


def collect_expert_dataset(
    envs: Sequence[Environment],
    config: PretrainConfig,
    rng=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Roll out the expert pilot and collect (observation, action) pairs."""
    rng = as_rng(rng)
    expert = DroneExpertPilot()
    observations: List[np.ndarray] = []
    actions: List[int] = []
    for env in envs:
        for _episode in range(config.collection_episodes):
            observation = env.reset()
            done = False
            while not done and len(observations) < config.max_samples:
                action = expert.select_action(observation)
                observations.append(observation)
                actions.append(action)
                if config.exploration_noise > 0 and rng.random() < config.exploration_noise:
                    action = int(rng.integers(0, env.action_count))
                result = env.step(action)
                observation = result.observation
                done = result.done
            if len(observations) >= config.max_samples:
                break
    if not observations:
        raise RuntimeError("expert collected no samples; check the environments")
    return np.stack(observations), np.asarray(actions, dtype=np.int64)


def _train_on_dataset(
    agent: ReinforceAgent,
    observations: np.ndarray,
    actions: np.ndarray,
    config: PretrainConfig,
    rng: np.random.Generator,
) -> float:
    """Supervised NLL training of the softmax policy; returns final accuracy.

    Cloning uses its own optimizer (and learning rate): the offline stage can
    afford larger steps than the cautious online fine-tuning optimizer the
    agent carries into the federated system.
    """
    from repro.nn import Adam

    optimizer = Adam(agent.network.parameters(), learning_rate=config.learning_rate)
    sample_count = observations.shape[0]
    accuracy = 0.0
    for _epoch in range(config.epochs):
        order = rng.permutation(sample_count)
        correct = 0
        for start in range(0, sample_count, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            batch_obs = observations[batch_idx]
            batch_act = actions[batch_idx]
            probabilities = agent.network.forward(batch_obs)
            clipped = np.clip(probabilities, 1e-8, 1.0)
            grad = np.zeros_like(probabilities)
            rows = np.arange(len(batch_idx))
            grad[rows, batch_act] = -1.0 / clipped[rows, batch_act]
            grad /= len(batch_idx)
            agent.network.zero_grad()
            agent.network.backward(grad, input_grad=False)
            optimizer.step()
            correct += int((probabilities.argmax(axis=1) == batch_act).sum())
        accuracy = correct / sample_count
    return accuracy


def collect_on_policy_dataset(
    agent: ReinforceAgent,
    envs: Sequence[Environment],
    episodes_per_env: int,
    max_samples: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Roll out the agent's own policy and label visited states with the expert."""
    expert = DroneExpertPilot()
    observations: List[np.ndarray] = []
    actions: List[int] = []
    for env in envs:
        for _episode in range(episodes_per_env):
            observation = env.reset()
            done = False
            while not done and len(observations) < max_samples:
                observations.append(observation)
                actions.append(expert.select_action(observation))
                action = agent.select_action(observation, explore=True)
                result = env.step(action)
                observation = result.observation
                done = result.done
            if len(observations) >= max_samples:
                break
    if not observations:
        raise RuntimeError("agent rollouts collected no samples; check the environments")
    return np.stack(observations), np.asarray(actions, dtype=np.int64)


def behaviour_clone(
    agent: ReinforceAgent,
    envs: Sequence[Environment],
    config: PretrainConfig = PretrainConfig(),
    rng=None,
) -> float:
    """Clone the expert pilot into ``agent``'s CNN policy.

    Plain behaviour cloning on expert rollouts is followed by
    ``config.dagger_iterations`` rounds of DAgger aggregation.  Returns the
    final training accuracy (fraction of expert actions matched).
    """
    rng = as_rng(rng)
    observations, actions = collect_expert_dataset(envs, config, rng=rng)
    accuracy = _train_on_dataset(agent, observations, actions, config, rng)
    for _iteration in range(config.dagger_iterations):
        extra_obs, extra_act = collect_on_policy_dataset(
            agent, envs, config.dagger_episodes, config.max_samples, rng
        )
        observations = np.concatenate([observations, extra_obs])
        actions = np.concatenate([actions, extra_act])
        accuracy = _train_on_dataset(agent, observations, actions, config, rng)
    return accuracy

