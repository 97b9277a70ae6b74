"""Rollout and evaluation helpers.

GridWorld evaluation supports a small ε of residual exploration noise: the
paper's success-rate campaigns repeat each scenario many times, which is only
meaningful when the rollout has some stochasticity.  A small ε also mirrors
the fielded behaviour of exploitation-phase agents that retain a residual
exploration rate.

When no explicit ``rng`` is supplied the helpers draw the ε noise from the
*agent's own* seeded stream instead of fresh OS entropy, so campaigns built
from seeded agents evaluate reproducibly — the property the parallel campaign
runner's serial/parallel bit-identity guarantee rests on.  The deliberate
trade-off: evaluating a live agent advances its training stream, so the
evaluation cadence is part of an experiment's definition (changing it changes
the downstream trajectory — deterministically).  Pass an explicit ``rng`` to
evaluate without touching the agent's stream.

A drone policy is scored by one greedy flight per (policy, world) pair, run
as a lane of :func:`evaluate_episodes_lockstep`.  A greedy drone action is
the argmax of the policy, which draws nothing, and every flight starts from
the same pose, so a second flight of a pair would repeat the first byte for
byte.  :func:`greedy_episode` is the serial form of that flight.  A GridWorld
observation depends only on the agent's cell, so GridWorld evaluation
computes the greedy action of every cell once, from the Q-network's state
(:func:`greedy_action_table`), and runs each attempt as one
:meth:`GridWorldEnv.walk` over the layout's successor table: the same draws
as :func:`greedy_episode`, without building step results.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.envs.base import Environment
from repro.envs.gridworld import GridWorldEnv
from repro.nn import Linear, ReLU
from repro.nn.batched import StackedPolicy
from repro.nn.network import gridworld_q_values
from repro.rl.base import Agent, EpisodeStats, outcome_to_stats
from repro.rl.lockstep import _lane_info, lane_bundles
from repro.rl.qlearning import QLearningAgent
from repro.utils.rng import as_rng


def greedy_episode(
    act: Callable[[np.ndarray], int], env: Environment, epsilon: float, rng
) -> EpisodeStats:
    """Run one exploitation episode without learning.

    ``act`` maps the current observation to the greedy action.  ``epsilon``
    injects residual exploration noise: when it is positive, every step
    draws from ``rng`` and, with probability ``epsilon``, takes a uniform
    random action instead.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    observation = env.reset()
    total_reward = 0.0
    steps = 0
    last_info = {}
    done = False
    while not done:
        if epsilon > 0.0 and rng.random() < epsilon:
            action = int(rng.integers(0, env.action_count))
        else:
            action = act(observation)
        result = env.step(action)
        total_reward += result.reward
        steps += 1
        last_info = result.info
        observation = result.observation
        done = result.done
    return outcome_to_stats(total_reward, steps, last_info)


def greedy_action_table(state: Dict[str, np.ndarray], env: GridWorldEnv) -> List[int]:
    """The greedy action in every cell of ``env`` of the Q-network holding ``state``.

    The Q-values (:func:`~repro.nn.network.gridworld_q_values`) are computed
    once per distinct observation of the layout, stacked as
    ``(rows, 1, obs)``: numpy's matmul makes each row's one-row product, so
    every row keeps the bytes of a one-row forward (a ``(rows, obs)`` batch
    would change the BLAS kernel).  The argmax of each row is expanded to
    every flat cell, ``row * cols + col``, as the plain ints
    :meth:`GridWorldEnv.walk` takes.
    """
    rows, inverse = env.layout.distinct_observations(env.observation_mode)
    q_values = gridworld_q_values(state, rows[:, None, :])
    return np.argmax(q_values[:, 0], axis=1)[inverse].tolist()


def evaluate_success_rate(
    agent: QLearningAgent,
    env: GridWorldEnv,
    attempts: int = 20,
    epsilon: float = 0.05,
    rng=None,
) -> float:
    """Fraction of attempts in which the agent reached the goal (GridWorld SR).

    Every attempt is one :meth:`GridWorldEnv.walk` over the
    :func:`greedy_action_table` of the agent's parameters, with the draws of
    :func:`greedy_episode`.  Layers other than Linear and ReLU are refused:
    a fault hook draws on every forward, which a table cannot repeat.
    """
    if attempts <= 0:
        raise ValueError(f"attempts must be positive, got {attempts}")
    for module in agent.network:
        if not isinstance(module, (Linear, ReLU)):
            raise TypeError(
                f"greedy action tables need Linear and ReLU layers, got {type(module).__name__}"
            )
    rng = as_rng(rng if rng is not None else getattr(agent, "rng", None))
    actions = greedy_action_table(agent.state_dict(), env)
    successes = sum(env.walk(actions, epsilon, rng) for _ in range(attempts))
    return successes / attempts


# --------------------------------------------------------------------- lockstep
def evaluate_episodes_lockstep(vec_env, policy: StackedPolicy) -> List[List[EpisodeStats]]:
    """Run one greedy episode per lane with all lanes in lockstep.

    Lane ``i`` of ``vec_env`` takes the argmax of the stacked network at
    lane ``i`` of ``policy``, for every live lane in one ``np.argmax``.
    Entry ``i`` of the result is the one-element list of lane ``i``'s
    episode, bitwise identical to :func:`greedy_episode` without residual ε
    on that lane's environment with the agent owning that network.  Nothing
    is drawn, so lanes may share an agent.
    """
    lane_count = vec_env.lane_count
    if policy.lane_count != lane_count:
        raise ValueError(f"need {lane_count} stacked networks, got {policy.lane_count}")
    per_lane: List[List[EpisodeStats]] = [[] for _ in range(lane_count)]
    totals = np.zeros(lane_count, dtype=np.float64)
    steps = np.zeros(lane_count, dtype=np.int64)
    vec_env.reset_batch()
    while True:
        active = np.flatnonzero(~vec_env.done)
        if active.size == 0:
            return per_lane
        probabilities = policy.forward(vec_env.observations[active], lanes=active)
        actions = np.zeros(lane_count, dtype=np.int64)
        actions[active] = np.argmax(probabilities, axis=1)
        result = vec_env.step_batch(actions)
        totals[active] += result.rewards[active]
        steps[active] += 1
        for lane in active[result.done[active]]:
            per_lane[lane].append(
                outcome_to_stats(
                    float(totals[lane]),
                    int(steps[lane]),
                    _lane_info(vec_env, lane, result.outcomes[lane]),
                )
            )


def greedy_flight_distances(pairs: Sequence[Tuple[Agent, Environment]]) -> List[float]:
    """The safe flight distance of each (agent, environment) pair, in order.

    One greedy flight per pair, each :func:`lane_bundles` bundle flown as the
    lanes of one :func:`evaluate_episodes_lockstep` pass.
    """
    distances: List[float] = [0.0] * len(pairs)
    for indices, _, vec_env, policy in lane_bundles(pairs):
        for index, lane in zip(indices, evaluate_episodes_lockstep(vec_env, policy)):
            distances[index] = lane[0].flight_distance
    return distances
