"""A federated agent: a learning agent bound to its own environment."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.envs.base import Environment
from repro.rl.base import Agent


class FederatedAgent:
    """Pairs an RL agent with its local environment.

    The agent keeps no history: its system logs every episode reward
    (``FRLSystem.log.episode_rewards``) and hands each episode's stats to
    ``on_agent_episode_end``, where the training-time fault detector reads
    them.  A sustained drop in an agent's cumulative episode reward signals
    a fault in that agent (or, if most agents drop simultaneously, in the
    server).
    """

    def __init__(self, index: int, agent: Agent, env: Environment, name: Optional[str] = None) -> None:
        self.index = index
        self.agent = agent
        self.env = env
        self.name = name or f"agent-{index}"

    # ------------------------------------------------------------- parameters
    def upload_state(self) -> Dict[str, np.ndarray]:
        """Parameters the agent shares with the server."""
        return self.agent.state_dict()

    def receive_state(self, state: Dict[str, np.ndarray]) -> None:
        """Install parameters received from the server."""
        self.agent.load_state_dict(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"FederatedAgent(index={self.index}, name={self.name!r})"
