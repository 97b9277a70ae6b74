"""Training-time fault injection as an FRL training callback.

A :class:`TrainingFaultCallback` materializes a :class:`repro.faults.FaultSpec`
during federated training: at the specified injection episode it corrupts
either one agent's policy parameters (agent fault — the data the server
receives from that agent) or the server's consensus parameters as received by
every agent (server fault).  Activation faults attach transient hooks to the
targeted policy network for the duration of the injection episode.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro.faults.hooks import attach_activation_faults, detach_activation_faults
from repro.faults.injector import FaultInjector
from repro.faults.locations import FaultLocation, FaultTarget
from repro.faults.spec import FaultSpec
from repro.federated.callbacks import TrainingCallback
from repro.utils.rng import as_rng

StateDict = Dict[str, np.ndarray]


class TrainingFaultCallback(TrainingCallback):
    """Inject one fault scenario into FRL (or single-agent) training."""

    def __init__(
        self,
        spec: FaultSpec,
        injector: Optional[FaultInjector] = None,
        datatype: str = "int8",
        rng=None,
    ) -> None:
        self.spec = spec
        self._rng = as_rng(rng)
        self.injector = injector or FaultInjector(
            datatype=datatype, model=spec.model, rng=self._rng
        )
        self.injections: List[dict] = []
        self._active_hooks = []

    # ------------------------------------------------------------------ helpers
    def _should_inject(self, episode: int) -> bool:
        if not self.spec.is_enabled:
            return False
        if self.spec.injection_episode is None:
            return True
        return episode == self.spec.injection_episode

    def _target_agent_index(self, system) -> int:
        if self.spec.agent_index is not None:
            return self.spec.agent_index % system.agent_count
        return int(self._rng.integers(0, system.agent_count))

    def _record(self, episode: int, where: str, agent_index: Optional[int] = None) -> None:
        self.injections.append(
            {
                "episode": episode,
                "where": where,
                "agent_index": agent_index,
                "ber": self.spec.bit_error_rate.rate,
                "model": self.spec.model.name,
            }
        )

    # --------------------------------------------------------------- weight path
    def on_episode_start(self, system, episode: int) -> None:
        if not self._should_inject(episode):
            return
        if self.spec.target != FaultTarget.ACTIVATIONS:
            return
        # Activation faults: wrap the targeted policy network for this episode.
        if self.spec.analysis_class == "agent":
            agent_index = self._target_agent_index(system)
            network = system.agents[agent_index].agent.network
            self._active_hooks = attach_activation_faults(
                network, self.injector, self.spec.bit_error_rate
            )
            self._record(episode, "agent_activations", agent_index)
        else:
            # Server-side activations: every agent consumes server-produced
            # data, so all agents' networks observe corrupted activations.
            self._active_hooks = []
            for agent in system.agents:
                self._active_hooks.extend(
                    attach_activation_faults(
                        agent.agent.network, self.injector, self.spec.bit_error_rate
                    )
                )
            self._record(episode, "server_activations", None)

    def on_round_end(self, system, episode: int, communicated: bool) -> None:
        # Remove any transient activation hooks installed for this episode.
        if self._active_hooks:
            for agent in system.agents:
                detach_activation_faults(agent.agent.network)
            self._active_hooks = []
        if not self._should_inject(episode):
            return
        if self.spec.target == FaultTarget.ACTIVATIONS:
            return
        if self.spec.analysis_class == "agent":
            agent_index = self._target_agent_index(system)
            clean = system.agents[agent_index].upload_state()
            corrupted = self.injector.corrupt_state_dict(clean, self.spec.bit_error_rate)
            system.corrupt_agent(agent_index, corrupted)
            self._record(episode, "agent_weights", agent_index)
        else:
            consensus = system.consensus_state()
            corrupted = self.injector.corrupt_state_dict(consensus, self.spec.bit_error_rate)
            system.server.set_consensus(corrupted)
            for agent_index in range(system.agent_count):
                system.corrupt_agent(
                    agent_index,
                    {name: np.array(value, copy=True) for name, value in corrupted.items()},
                )
            self._record(episode, "server_weights", None)

    @property
    def injection_count(self) -> int:
        return len(self.injections)


def make_training_fault(
    location: Union[str, FaultLocation],
    bit_error_rate: float,
    injection_episode: Optional[int],
    model: str = "transient",
    target: Union[str, FaultTarget] = "weights",
    agent_index: Optional[int] = None,
    datatype: str = "int8",
    rng=None,
) -> TrainingFaultCallback:
    """Convenience constructor used by the training cell functions."""
    spec = FaultSpec(
        location=location,
        target=target,
        bit_error_rate=bit_error_rate,
        model=model,
        injection_episode=injection_episode,
        agent_index=agent_index,
    )
    return TrainingFaultCallback(spec, datatype=datatype, rng=rng)
