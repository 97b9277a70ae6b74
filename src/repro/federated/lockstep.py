"""Lockstep training and evaluation of a *group* of independent systems.

The vectorized campaign path runs every cell of a ``--batch-cells`` group as
one lane bundle: the (system, agent) pairs of all cells become lanes of one
vector environment plus one :class:`~repro.nn.batched.StackedPolicy`, and each
global episode advances every live system by one local episode.  Per-episode
bookkeeping — reward histories, logs, callbacks, communication rounds — runs
in serial system order with the *real* serial code, so the group's side
effects and results are bitwise identical to training each system on its own.

Interleaving episodes across systems is safe because systems share no state:
every agent and callback owns an independent ``SeedSequence`` stream, and each
stream's draw *order* is untouched by the interleaving (see
``rl/lockstep.py``).  :func:`lockstep_compatible` gates the path: it requires
identical environment configs and network topologies across lanes, and
rejects activation-target fault callbacks (their hooks wrap the serial
``network.forward``, which the stacked forward does not call).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.faults.locations import FaultTarget
from repro.federated.callbacks import CallbackList, TrainingCallback
from repro.federated.system import TrainingLog
from repro.nn.batched import StackedPolicy
from repro.rl.lockstep import build_vec_env, train_episodes_lockstep
from repro.rl.rollout import evaluate_episodes_lockstep


def _callback_lockstep_safe(callback: TrainingCallback) -> bool:
    """Whether a callback is safe under the stacked (hook-free) forward path."""
    if isinstance(callback, CallbackList):
        return all(_callback_lockstep_safe(inner) for inner in callback.callbacks)
    spec = getattr(callback, "spec", None)
    if spec is None:
        # Unknown callback type: be conservative — it may wrap network.forward
        # (activation hooks) or depend on the serial per-agent episode order.
        return False
    return spec.target != FaultTarget.ACTIVATIONS


def lockstep_compatible(
    systems: Sequence, callbacks_per_system: Sequence[Sequence[TrainingCallback]]
) -> bool:
    """Whether ``systems`` (with their callbacks) can train/evaluate in lockstep.

    Checks are structural and side-effect free: every environment must share
    one vector-env family and config, every policy network one topology, and
    every callback must be a weights-target fault callback (or none).
    """
    try:
        build_vec_env([env for system in systems for _, env in system.evaluation_pairs()])
        StackedPolicy([fed.agent.network for system in systems for fed in system.agents])
    except (TypeError, ValueError):
        return False
    for callbacks in callbacks_per_system:
        if not all(_callback_lockstep_safe(callback) for callback in callbacks):
            return False
    return True


def train_group_lockstep(
    systems: Sequence,
    callbacks_per_system: Sequence[Sequence[TrainingCallback]],
    episodes_per_system: Sequence[int],
) -> List[TrainingLog]:
    """Train each system for its episode count, interleaved in lockstep.

    Equivalent — bitwise, including logs, reward histories and callback
    records — to ``systems[i].train(episodes_per_system[i],
    callbacks=callbacks_per_system[i])`` run one system at a time.  Systems
    with fewer episodes simply drop out of the live set early (masked, like
    terminated lanes within an episode).
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
    # One stacked policy over every agent in group order; refreshed per episode
    # after all weight-mutating hooks (faults, communication) have run.
    all_wrappers = [fed for system in systems for fed in system.agents]
    policy = StackedPolicy([fed.agent.network for fed in all_wrappers])
    policy_lane = {id(fed): lane for lane, fed in enumerate(all_wrappers)}
    for system, callback in zip(systems, wrapped):
        callback.on_training_start(system)
    total = max(episodes_per_system, default=0)
    for episode in range(total):
        live = [i for i in range(len(systems)) if episode < episodes_per_system[i]]
        for i in live:
            wrapped[i].on_episode_start(systems[i], episode)
        # This episode's lanes: each live system's episode agents, in order.
        lane_wrappers, lane_systems = [], []
        for i in live:
            for fed in systems[i].episode_agents():
                lane_wrappers.append(fed)
                lane_systems.append(i)
        for fed in lane_wrappers:
            fed.agent.begin_episode(episode)
        policy.refresh()
        vec_env = build_vec_env([fed.env for fed in lane_wrappers])
        lanes = np.asarray([policy_lane[id(fed)] for fed in lane_wrappers], dtype=np.int64)
        stats = train_episodes_lockstep(
            [fed.agent for fed in lane_wrappers], vec_env, policy, policy_lanes=lanes
        )
        # Serial-order bookkeeping: what each system's own train() runs after
        # its agents' episodes, system by system.
        for i in live:
            rows = [k for k, owner in enumerate(lane_systems) if owner == i]
            for k in rows:
                fed = lane_wrappers[k]
                fed.reward_history.append(stats[k].total_reward)
                fed.episode_stats.append(stats[k])
                wrapped[i].on_agent_episode_end(systems[i], episode, fed.index, stats[k])
            systems[i].end_episode(episode, [stats[k].total_reward for k in rows], wrapped[i])
    for system, callback in zip(systems, wrapped):
        callback.on_training_end(system)
    return [system.log for system in systems]


def average_flight_distance_group_lockstep(systems: Sequence, attempts: int = 3) -> List[float]:
    """Per-system mean safe flight distance, evaluated in lockstep.

    Value ``i`` is bitwise identical to
    ``systems[i].average_flight_distance(attempts=attempts)``: one lane per
    pair of ``systems[i].evaluation_pairs()``.  Drone evaluation is greedy
    and draw-free, so lanes may freely share streams.
    """
    lane_agents, lane_envs, lane_systems = [], [], []
    for i, system in enumerate(systems):
        for agent, env in system.evaluation_pairs():
            lane_agents.append(agent)
            lane_envs.append(env)
            lane_systems.append(i)
    per_lane = evaluate_episodes_lockstep(
        lane_agents,
        build_vec_env(lane_envs),
        StackedPolicy([agent.network for agent in lane_agents]),
        attempts=attempts,
    )
    means = [
        float(np.mean([stats.flight_distance for stats in lane])) for lane in per_lane
    ]
    return [
        float(np.mean([means[k] for k, owner in enumerate(lane_systems) if owner == i]))
        for i in range(len(systems))
    ]


__all__ = [
    "average_flight_distance_group_lockstep",
    "lockstep_compatible",
    "train_group_lockstep",
]
