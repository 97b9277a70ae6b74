"""Training callbacks: the hook points for fault injection and mitigation.

The FRL trainer calls these hooks at well-defined points of every episode.
Faults enter training only through
:class:`repro.core.fault_callbacks.TrainingFaultCallback`, which uses the
episode hooks: ``on_episode_start`` attaches activation faults and
``on_round_end`` corrupts an agent's or the server's weights after the
episode's communication round.  Link faults need no hook of their own,
because the paper counts them as agent or server faults
(:func:`repro.faults.locations.effective_class`).  Mitigation schemes also
implement ``on_round_end``, to detect reward drops and restore checkpoints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.rl.base import EpisodeStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking only
    from repro.federated.system import FRLSystem


class TrainingCallback:
    """No-op base class; override only the hooks you need."""

    def on_training_start(self, system: "FRLSystem") -> None:
        """Called once before the first episode."""

    def on_episode_start(self, system: "FRLSystem", episode: int) -> None:
        """Called before agents run their local episodes."""

    def on_agent_episode_end(
        self, system: "FRLSystem", episode: int, agent_index: int, stats: EpisodeStats
    ) -> None:
        """Called per agent, in order, once every agent's local episode has run.

        Drones train side by side as lanes, so this must not change weights:
        act on them in ``on_round_end``, as checkpoint recovery does.  A drone
        lane's ``stats.info`` holds only its outcome and flight distance.
        """

    def on_round_end(self, system: "FRLSystem", episode: int, communicated: bool) -> None:
        """Called at the very end of every episode (after any communication)."""

    def on_training_end(self, system: "FRLSystem") -> None:
        """Called once after the last episode."""


class CallbackList(TrainingCallback):
    """Compose multiple callbacks; each hook fires in registration order."""

    def __init__(self, callbacks: Sequence[TrainingCallback] = ()) -> None:
        self.callbacks: List[TrainingCallback] = list(callbacks)

    def append(self, callback: TrainingCallback) -> None:
        """Add ``callback`` to the dispatch list (fires after existing ones)."""
        self.callbacks.append(callback)

    def on_training_start(self, system) -> None:
        """Fan ``on_training_start`` out to every callback, in registration order."""
        for callback in self.callbacks:
            callback.on_training_start(system)

    def on_episode_start(self, system, episode) -> None:
        """Fan ``on_episode_start`` out to every callback, in registration order."""
        for callback in self.callbacks:
            callback.on_episode_start(system, episode)

    def on_agent_episode_end(self, system, episode, agent_index, stats) -> None:
        """Fan ``on_agent_episode_end`` out to every callback, in registration order."""
        for callback in self.callbacks:
            callback.on_agent_episode_end(system, episode, agent_index, stats)

    def on_round_end(self, system, episode, communicated) -> None:
        """Fan ``on_round_end`` out to every callback, in registration order."""
        for callback in self.callbacks:
            callback.on_round_end(system, episode, communicated)

    def on_training_end(self, system) -> None:
        """Fan ``on_training_end`` out to every callback, in registration order."""
        for callback in self.callbacks:
            callback.on_training_end(system)
