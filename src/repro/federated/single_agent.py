"""Single-agent baseline (no server, no parameter sharing).

The paper contrasts the FRL system against a single-agent system trained only
on the states its own environment exposes; the comparison underpins the
multi-agent-resilience observation.  The baseline is a one-agent
:class:`FRLSystem`: one agent never communicates, so its parameters never
leave the agent.  It rotates through its environments, one per episode, and
evaluation averages the agent over every one of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.envs.base import Environment
from repro.federated.agent import FederatedAgent
from repro.federated.callbacks import TrainingCallback
from repro.federated.system import FRLSystem, TrainingLog
from repro.rl.base import Agent

StateDict = Dict[str, np.ndarray]


class SingleAgentSystem(FRLSystem):
    """A single learning agent trained and evaluated across one or more environments."""

    def __init__(self, agent: Agent, envs: Sequence[Environment]) -> None:
        if not envs:
            raise ValueError("single-agent system needs at least one environment")
        self.agent = agent
        self.envs: List[Environment] = list(envs)
        self.wrapper = FederatedAgent(index=0, agent=agent, env=self.envs[0])
        self._env_cursor = 0
        super().__init__([self.wrapper])

    def train(
        self,
        episodes: int,
        callbacks: Optional[Sequence[TrainingCallback]] = None,
        start_episode: int = 0,
    ) -> TrainingLog:
        """Train the single agent, cycling through its environments.

        Defined here, not only inherited, because the benchmark's tracer
        (``perfbench/layers.py``) wraps ``train`` in this class's namespace.
        """
        return super().train(episodes, callbacks=callbacks, start_episode=start_episode)

    def episode_agents(self) -> List[FederatedAgent]:
        """The one agent, moved onto the next environment of the rotation."""
        self.wrapper.env = self.envs[self._env_cursor % len(self.envs)]
        self._env_cursor += 1
        return self.agents

    def evaluation_pairs(self) -> List[Tuple[Agent, Environment]]:
        """The agent on every configured environment."""
        return [(self.agent, env) for env in self.envs]

    def consensus_state(self) -> StateDict:
        """The agent's own state dict (there is no consensus to share)."""
        return self.agent.state_dict()

    def corrupt_agent(self, agent_index: int, corrupted_state: StateDict) -> None:
        """Replace agent 0's state with ``corrupted_state`` (fault-injection seam)."""
        if agent_index != 0:
            raise IndexError("single-agent system only has agent 0")
        self.agent.load_state_dict(corrupted_state)
