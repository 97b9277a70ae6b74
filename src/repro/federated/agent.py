"""A federated agent: a learning agent bound to its own environment."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.envs.base import Environment
from repro.rl.base import Agent, EpisodeStats


class FederatedAgent:
    """Pairs an RL agent with its local environment and reward history.

    The reward history is what the training-time fault detector monitors: a
    sustained drop in an agent's cumulative episode reward signals a fault in
    that agent (or, if most agents drop simultaneously, in the server).
    """

    def __init__(self, index: int, agent: Agent, env: Environment, name: Optional[str] = None) -> None:
        self.index = index
        self.agent = agent
        self.env = env
        self.name = name or f"agent-{index}"
        self.reward_history: List[float] = []
        self.episode_stats: List[EpisodeStats] = []

    def run_training_episode(self, episode_index: int) -> EpisodeStats:
        """One local training episode; records the cumulative reward."""
        self.agent.begin_episode(episode_index)
        stats = self.agent.run_episode(self.env, train=True)
        self.reward_history.append(stats.total_reward)
        self.episode_stats.append(stats)
        return stats

    # ------------------------------------------------------------- parameters
    def upload_state(self) -> Dict[str, np.ndarray]:
        """Parameters the agent shares with the server."""
        return self.agent.state_dict()

    def receive_state(self, state: Dict[str, np.ndarray]) -> None:
        """Install parameters received from the server."""
        self.agent.load_state_dict(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"FederatedAgent(index={self.index}, name={self.name!r})"
