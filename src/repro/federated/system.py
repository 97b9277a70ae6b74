"""The FRL training orchestrator.

One :class:`FRLSystem` owns ``n`` federated agents (each with its own
environment), the server and the communication schedule.  Every episode each
agent trains locally; at the end of episodes selected by the schedule the
agents upload their parameters, the server aggregates them with the smoothing
average and the new parameters are broadcast back.  Fault injection and
mitigation plug in through the episode hooks of
:class:`repro.federated.callbacks.TrainingCallback`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.envs.base import Environment
from repro.federated.agent import FederatedAgent
from repro.federated.callbacks import TrainingCallback
from repro.federated.lockstep import train_group_lockstep
from repro.federated.schedule import CommunicationSchedule
from repro.federated.server import FederatedServer
from repro.rl.base import Agent
from repro.rl.rollout import evaluate_success_rate, greedy_flight_distances

StateDict = Dict[str, np.ndarray]


@dataclass
class TrainingLog:
    """Per-episode records collected during FRL training."""

    episode_rewards: List[List[float]] = field(default_factory=list)
    communication_episodes: List[int] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)

    @property
    def episodes(self) -> int:
        """Number of episodes recorded so far."""
        return len(self.episode_rewards)

    @property
    def communication_count(self) -> int:
        """Number of communication rounds recorded so far."""
        return len(self.communication_episodes)

    def record_event(self, episode: int, kind: str, **details) -> None:
        """Append a structured event (communication, fault, recovery) to the log."""
        self.events.append({"episode": episode, "kind": kind, **details})


class FRLSystem:
    """Federated reinforcement learning system (agents + server + schedule)."""

    def __init__(
        self,
        agents: Sequence[FederatedAgent],
        server: Optional[FederatedServer] = None,
        schedule: Optional[CommunicationSchedule] = None,
    ) -> None:
        if not agents:
            raise ValueError("an FRL system needs at least one agent")
        self.agents: List[FederatedAgent] = list(agents)
        self.server = server or FederatedServer()
        self.schedule = schedule or CommunicationSchedule()
        self.log = TrainingLog()

    @property
    def agent_count(self) -> int:
        """Number of federated agents in the system."""
        return len(self.agents)

    # ---------------------------------------------------------------- training
    def train(
        self,
        episodes: int,
        callbacks: Optional[Sequence[TrainingCallback]] = None,
        start_episode: int = 0,
    ) -> TrainingLog:
        """Run ``episodes`` federated training episodes.

        ``start_episode`` offsets the episode index seen by schedules and
        callbacks, so training can be resumed (e.g. fine-tuning after offline
        pre-training, or continuing after a fault-recovery experiment).  This
        is :func:`repro.federated.lockstep.train_group_lockstep` of one system.
        """
        return train_group_lockstep([self], [callbacks], [episodes], start_episode)[0]

    def episode_agents(self) -> List[FederatedAgent]:
        """The agents that run a local episode this episode, in order: all of them."""
        return self.agents

    def end_episode(self, episode: int, rewards: List[float], callback: TrainingCallback) -> None:
        """Log the episode's ``rewards``, run a scheduled round, fire ``on_round_end``."""
        self.log.episode_rewards.append(rewards)
        communicated = self.schedule.should_communicate(episode) and self.agent_count > 1
        if communicated:
            self.communication_round(episode)
        callback.on_round_end(self, episode, communicated)

    def communication_round(self, episode: int) -> None:
        """One upload → aggregate → broadcast round."""
        broadcasts = self.server.aggregate([agent.upload_state() for agent in self.agents])
        for agent, broadcast in zip(self.agents, broadcasts):
            agent.receive_state(broadcast)
        self.log.communication_episodes.append(episode)

    # -------------------------------------------------------------- evaluation
    def evaluation_pairs(self) -> List[Tuple[Agent, Environment]]:
        """The (agent, environment) pairs evaluation averages over: each agent on its own."""
        return [(fed.agent, fed.env) for fed in self.agents]

    def average_success_rate(self, attempts: int = 20) -> float:
        """Mean GridWorld success rate over :meth:`evaluation_pairs` (paper's SR metric)."""
        return float(
            np.mean(
                [
                    evaluate_success_rate(agent, env, attempts=attempts)
                    for agent, env in self.evaluation_pairs()
                ]
            )
        )

    def average_flight_distance(self) -> float:
        """Mean DroneNav safe flight distance over :meth:`evaluation_pairs` (metres).

        One greedy flight per pair, the pairs flown as lanes of one lockstep pass.
        """
        return float(np.mean(greedy_flight_distances(self.evaluation_pairs())))

    def consensus_state(self) -> StateDict:
        """The server's consensus policy (averaging current agents if needed)."""
        if self.server.consensus is not None:
            return self.server.consensus
        from repro.federated.aggregation import average_states

        return average_states([agent.upload_state() for agent in self.agents])

    # -------------------------------------------------------------- fault entry
    def corrupt_agent(self, agent_index: int, corrupted_state: StateDict) -> None:
        """Overwrite one agent's policy with externally corrupted parameters."""
        self.agents[agent_index].receive_state(corrupted_state)
