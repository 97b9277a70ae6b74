"""Lockstep (vectorized) training over batches of independent rollouts.

The vectorized campaign path advances N independent REINFORCE rollouts
("lanes") through one vector environment and one :class:`StackedPolicy`
forward per step, instead of N python episode loops.  Byte-identity with the
serial path rests on three facts:

* every lane owns its own ``np.random.Generator`` (per-cell ``SeedSequence``
  streams are independent), and the per-lane draw *order on that stream* is
  unchanged — forward passes draw nothing, so batching them is invisible;
* the vector environments compute each lane's transition with the serial
  code: ``DroneNavVecEnv`` runs the drone row kernels on its live lanes'
  rows, ``GridWorldVecEnv`` calls each lane's own ``GridWorldEnv.step``;
* :class:`~repro.nn.batched.StackedPolicy` reproduces each network's forward
  bitwise (see ``nn/batched.py`` for the BLAS-layout argument).

Terminated lanes are frozen by mask, not dropped, so lane indices are stable
for the whole batch lifetime.  Q-learning training is *not* lockstep-able
(its replay updates interleave with stepping), so this engine is REINFORCE
only; evaluation of both agent families is handled in ``rl/rollout.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.envs.base import Environment
from repro.nn.batched import StackedPolicy
from repro.rl.base import Agent, EpisodeStats, outcome_to_stats


def build_vec_env(envs: Sequence[Environment]):
    """Wrap a batch of same-family environments in their vector counterpart."""
    from repro.envs.dronenav import DroneNavEnv, DroneNavVecEnv
    from repro.envs.gridworld import GridWorldEnv, GridWorldVecEnv

    if not envs:
        raise ValueError("build_vec_env needs at least one environment")
    head = envs[0]
    if isinstance(head, DroneNavEnv):
        return DroneNavVecEnv(envs)
    if isinstance(head, GridWorldEnv):
        return GridWorldVecEnv(envs)
    raise TypeError(f"no vector environment for {type(head).__name__}")


def _lane_info(vec_env, lane: int, outcome: Optional[str]) -> dict:
    """The ``info`` dict a lane's serial environment would report at ``done``."""
    info = {"outcome": outcome}
    distances = getattr(vec_env, "flight_distances", None)
    if distances is not None:
        info["flight_distance"] = float(distances[lane])
    return info


def train_episodes_lockstep(
    agents: Sequence[Agent],
    vec_env,
    policy: StackedPolicy,
    policy_lanes: Optional[np.ndarray] = None,
) -> List[EpisodeStats]:
    """Run one training episode per lane, all lanes advancing in lockstep.

    ``agents[i]`` drives lane ``i`` of ``vec_env`` using the stacked network
    at ``policy_lanes[i]`` (lane ``i`` when omitted).  Each lane's episode is
    bitwise identical to ``agents[i].run_episode(envs[i], train=True)``: the
    pre-step observation/action/reward buffers feed the agent's own
    ``_policy_gradient_step`` the moment its lane terminates.  ``policy`` must
    have been ``refresh()``-ed after the last weight mutation; updates applied
    here leave the stacked copies stale, so refresh again before reuse.
    """
    lane_count = vec_env.lane_count
    if len(agents) != lane_count:
        raise ValueError(f"need {lane_count} agents, got {len(agents)}")
    if policy_lanes is None:
        policy_lanes = np.arange(lane_count, dtype=np.int64)
    else:
        policy_lanes = np.asarray(policy_lanes, dtype=np.int64)
    current = np.array(vec_env.reset_batch(), copy=True)
    observation_buffers: List[List[np.ndarray]] = [[] for _ in range(lane_count)]
    action_buffers: List[List[int]] = [[] for _ in range(lane_count)]
    reward_buffers: List[List[float]] = [[] for _ in range(lane_count)]
    totals = np.zeros(lane_count, dtype=np.float64)
    steps = np.zeros(lane_count, dtype=np.int64)
    stats: List[Optional[EpisodeStats]] = [None] * lane_count
    while True:
        active = np.flatnonzero(~vec_env.done)
        if active.size == 0:
            break
        probabilities = policy.forward(current[active], lanes=policy_lanes[active])
        actions = np.zeros(lane_count, dtype=np.int64)
        for row, lane in enumerate(active):
            # Per-lane draw on the lane's own stream, in lane order — the
            # forward pass above consumed no randomness, so each stream sees
            # exactly the serial sequence.
            actions[lane] = agents[lane].sample_action_from(probabilities[row])
        result = vec_env.step_batch(actions)
        for lane in active:
            observation_buffers[lane].append(current[lane].copy())
            action_buffers[lane].append(int(actions[lane]))
            reward_buffers[lane].append(float(result.rewards[lane]))
            totals[lane] += result.rewards[lane]
            steps[lane] += 1
            if result.done[lane]:
                agents[lane]._policy_gradient_step(
                    observation_buffers[lane], action_buffers[lane], reward_buffers[lane]
                )
                stats[lane] = outcome_to_stats(
                    float(totals[lane]),
                    int(steps[lane]),
                    _lane_info(vec_env, lane, result.outcomes[lane]),
                )
        current[active] = result.observations[active]
    return stats  # type: ignore[return-value]


__all__ = ["build_vec_env", "train_episodes_lockstep"]
