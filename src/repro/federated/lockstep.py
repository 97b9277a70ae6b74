"""The FRL training loop, over one system or a group of independent systems.

:func:`train_group_lockstep` is the only FRL training loop:
``FRLSystem.train`` runs it over one system, and a group runner over every
cell of a ``--batch-cells`` group.  Each episode advances every live system
by one local episode: the systems' episode agents train through
:func:`repro.rl.lockstep.train_lanes` (REINFORCE drones as stacked lanes,
Q-learning agents and networks an activation fault hooks as serial episodes
in lane order), then per-episode bookkeeping — logs, callbacks,
communication rounds — runs in serial system order.  The results are
bitwise identical to training each agent in turn, the serial loop the tests
keep as reference: lanes share no state, since every agent and callback
owns an independent ``SeedSequence`` stream whose draw *order* is untouched
(see ``rl/lockstep.py``), and the only lanes that share a stream, the
networks one activation fault hooks, all run serially in lane order.  Every
lane of an episode has finished before the first ``on_agent_episode_end``
fires, so that hook must not change weights.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro.federated.callbacks import CallbackList, TrainingCallback
from repro.rl.lockstep import train_lanes
from repro.rl.rollout import greedy_flight_distances

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking only
    from repro.federated.system import TrainingLog


def train_group_lockstep(
    systems: Sequence,
    callbacks_per_system: Sequence[Sequence[TrainingCallback]],
    episodes_per_system: Sequence[int],
    start_episode: int = 0,
) -> List[TrainingLog]:
    """Train each system for its episode count, interleaved in lockstep.

    Per system, each episode fires ``on_episode_start``, trains every
    episode agent once (``begin_episode``, then one training episode), fires
    ``on_agent_episode_end`` per agent in order and ends with the system's
    ``end_episode`` (log, scheduled communication round, ``on_round_end``).
    ``start_episode`` offsets the episode index seen by schedules and
    callbacks.  Systems with fewer episodes simply drop out of the live set
    early.  Returns each system's log.
    """
    if not (len(systems) == len(callbacks_per_system) == len(episodes_per_system)):
        raise ValueError("systems, callbacks and episode counts must align")
    for episodes in episodes_per_system:
        if episodes < 0:
            raise ValueError(f"episodes must be non-negative, got {episodes}")
    wrapped = [
        callbacks if isinstance(callbacks, CallbackList) else CallbackList(callbacks or [])
        for callbacks in callbacks_per_system
    ]
    for system, callback in zip(systems, wrapped):
        callback.on_training_start(system)
    for offset in range(max(episodes_per_system, default=0)):
        episode = start_episode + offset
        live = [i for i, episodes in enumerate(episodes_per_system) if offset < episodes]
        for i in live:
            wrapped[i].on_episode_start(systems[i], episode)
        episode_agents = {i: systems[i].episode_agents() for i in live}
        lanes = [fed for i in live for fed in episode_agents[i]]
        for fed in lanes:
            fed.agent.begin_episode(episode)
        stats = iter(train_lanes([(fed.agent, fed.env) for fed in lanes]))
        for i in live:
            rewards = []
            for fed in episode_agents[i]:
                lane = next(stats)
                rewards.append(lane.total_reward)
                wrapped[i].on_agent_episode_end(systems[i], episode, fed.index, lane)
            systems[i].end_episode(episode, rewards, wrapped[i])
    for system, callback in zip(systems, wrapped):
        callback.on_training_end(system)
    return [system.log for system in systems]


def average_flight_distance_group_lockstep(systems: Sequence) -> List[float]:
    """Per-system mean safe flight distance, every system's pairs flown together.

    Value ``i`` is bitwise identical to ``systems[i].average_flight_distance()``:
    one lane per pair of ``systems[i].evaluation_pairs()``, and the mean over
    those lanes in order.  Drone evaluation is greedy and draw-free, so
    lanes may freely share streams.
    """
    groups = [system.evaluation_pairs() for system in systems]
    distances = iter(greedy_flight_distances([pair for pairs in groups for pair in pairs]))
    return [float(np.mean([next(distances) for _ in pairs])) for pairs in groups]


__all__ = ["average_flight_distance_group_lockstep", "train_group_lockstep"]
