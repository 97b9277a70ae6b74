"""Server checkpointing with reward-drop-triggered recovery (paper §V-A).

The server stores a checkpoint of the consensus policy every
``checkpoint_interval`` communication rounds.  When the reward-drop detector
flags a single agent, the checkpoint is copied to that agent; when it flags
the server (more than half the agents degraded), the server's consensus is
rolled back to the checkpoint and re-broadcast to every agent.  Checkpointing
is asynchronous with aggregation, so it adds no runtime overhead to the
training loop itself — only the modest memory of one extra policy copy.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.federated.callbacks import TrainingCallback
from repro.mitigation.reward_monitor import DetectionEvent, RewardDropDetector
from repro.nn.network import clone_state_dict

StateDict = Dict[str, np.ndarray]


class CheckpointStore:
    """Holds the most recent healthy consensus checkpoint."""

    def __init__(self) -> None:
        self._checkpoint: Optional[StateDict] = None
        self.saved_rounds = 0

    @property
    def checkpoint(self) -> Optional[StateDict]:
        return self._checkpoint

    def save(self, state: StateDict) -> None:
        self._checkpoint = clone_state_dict(state)
        self.saved_rounds += 1

    def restore(self) -> StateDict:
        if self._checkpoint is None:
            raise RuntimeError("no checkpoint has been saved yet")
        return clone_state_dict(self._checkpoint)

    @property
    def has_checkpoint(self) -> bool:
        return self._checkpoint is not None


class ServerCheckpointCallback(TrainingCallback):
    """Training callback implementing detection + checkpoint recovery."""

    def __init__(
        self,
        agent_count: int,
        drop_percent: float = 25.0,
        consecutive_episodes: int = 50,
        checkpoint_interval: int = 5,
        baseline_window: int = 20,
    ) -> None:
        if checkpoint_interval <= 0:
            raise ValueError(f"checkpoint_interval must be positive, got {checkpoint_interval}")
        self.detector = RewardDropDetector(
            agent_count=agent_count,
            drop_percent=drop_percent,
            consecutive_episodes=consecutive_episodes,
            baseline_window=baseline_window,
        )
        self.store = CheckpointStore()
        self.checkpoint_interval = checkpoint_interval
        self.recoveries: List[DetectionEvent] = []
        self._rounds_since_checkpoint = 0
        self._episode_rewards: List[float] = []

    # --------------------------------------------------------------- tracking
    def on_episode_start(self, system, episode: int) -> None:
        self._episode_rewards = [0.0] * system.agent_count

    def on_agent_episode_end(self, system, episode, agent_index, stats) -> None:
        if agent_index < len(self._episode_rewards):
            self._episode_rewards[agent_index] = stats.total_reward

    def on_round_end(self, system, episode: int, communicated: bool) -> None:
        # Periodically snapshot the consensus policy (asynchronously with the
        # aggregation path; here simply after the round completes).
        if communicated:
            self._rounds_since_checkpoint += 1
            if (
                self._rounds_since_checkpoint >= self.checkpoint_interval
                or not self.store.has_checkpoint
            ):
                consensus = system.consensus_state()
                self.store.save(consensus)
                self._rounds_since_checkpoint = 0
        elif not self.store.has_checkpoint:
            self.store.save(system.consensus_state())
        event = self.detector.observe(episode, self._episode_rewards)
        if event is not None and self.store.has_checkpoint:
            self._recover(system, event)

    # --------------------------------------------------------------- recovery
    def _recover(self, system, event: DetectionEvent) -> None:
        checkpoint = self.store.restore()
        if event.kind == "agent":
            for agent_index in event.agent_indices:
                system.corrupt_agent(agent_index, checkpoint)
                self.detector.reset_agent(agent_index)
        else:
            # Server fault: roll the server back and re-broadcast to everyone.
            system.server.set_consensus(checkpoint)
            for agent_index in range(system.agent_count):
                system.corrupt_agent(agent_index, checkpoint)
                self.detector.reset_agent(agent_index)
        self.recoveries.append(event)
        system.log.record_event(event.episode, "checkpoint_recovery",
                                fault_kind=event.kind, agents=list(event.agent_indices))

    @property
    def recovery_count(self) -> int:
        return len(self.recoveries)
