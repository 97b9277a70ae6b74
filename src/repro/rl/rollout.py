"""Rollout and evaluation helpers.

Evaluation supports a small ε of residual exploration noise: the paper's
success-rate campaigns repeat each scenario many times, which is only
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
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Sequence

import numpy as np

from repro.envs.base import Environment
from repro.envs.gridworld import GridWorldEnv
from repro.nn.batched import StackedPolicy
from repro.rl.base import Agent, EpisodeStats, outcome_to_stats
from repro.rl.lockstep import _lane_info
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


def greedy_action_table(agent: QLearningAgent, env: GridWorldEnv) -> np.ndarray:
    """``agent``'s greedy action in every cell of ``env``, indexed ``[row, col]``.

    One stacked forward over ``env.observation_table``; draws no random
    numbers.
    """
    table = env.observation_table
    rows, cols, size = table.shape
    return agent.greedy_actions(table.reshape(rows * cols, size)).reshape(rows, cols)


def evaluate_success_rate(
    agent: QLearningAgent,
    env: GridWorldEnv,
    attempts: int = 20,
    epsilon: float = 0.05,
    rng=None,
) -> float:
    """Fraction of attempts in which the agent reached the goal (GridWorld SR).

    Greedy actions come from one :func:`greedy_action_table` for all
    attempts.
    """
    if attempts <= 0:
        raise ValueError(f"attempts must be positive, got {attempts}")
    rng = as_rng(rng if rng is not None else getattr(agent, "rng", None))
    actions = greedy_action_table(agent, env)

    def act(_observation: np.ndarray) -> int:
        """The table's action for the agent's cell."""
        return actions[env.position]

    successes = 0
    for _ in range(attempts):
        stats = greedy_episode(act, env, epsilon, rng)
        if stats.success:
            successes += 1
    return successes / attempts


def evaluate_flight_distance(
    agent: Agent,
    env: Environment,
    attempts: int = 5,
    epsilon: float = 0.0,
    rng=None,
) -> float:
    """Average safe flight distance over ``attempts`` exploitation episodes."""
    if attempts <= 0:
        raise ValueError(f"attempts must be positive, got {attempts}")
    rng = as_rng(rng if rng is not None else getattr(agent, "rng", None))
    act = partial(agent.select_action, explore=False)
    distances: List[float] = []
    for _ in range(attempts):
        stats = greedy_episode(act, env, epsilon, rng)
        distances.append(stats.flight_distance)
    return float(np.mean(distances))


# --------------------------------------------------------------------- lockstep
def evaluate_episodes_lockstep(
    agents: Sequence[Agent],
    vec_env,
    policy: StackedPolicy,
    attempts: int = 1,
) -> List[List[EpisodeStats]]:
    """Run ``attempts`` greedy episodes per lane with all lanes in lockstep.

    Lane ``i`` of ``vec_env`` is driven by ``agents[i]`` using the stacked
    network at lane ``i`` of ``policy``; its attempts run *sequentially* (the
    lane resets and continues when an episode ends) so the per-lane
    transcript is bitwise identical to ``attempts`` serial
    :func:`greedy_episode` calls without residual ε.

    An agent's own greedy-ε (``greedy_action_from``) draws from its own
    stream, so identity requires lanes with a non-zero greedy-ε not to share
    an agent.  The drone campaign path evaluates with ``greedy_epsilon=0``,
    which draws nothing and is identical regardless.
    """
    if attempts <= 0:
        raise ValueError(f"attempts must be positive, got {attempts}")
    lane_count = vec_env.lane_count
    if len(agents) != lane_count:
        raise ValueError(f"need {lane_count} agents, got {len(agents)}")
    remaining = np.full(lane_count, attempts, dtype=np.int64)
    per_lane: List[List[EpisodeStats]] = [[] for _ in range(lane_count)]
    totals = np.zeros(lane_count, dtype=np.float64)
    steps = np.zeros(lane_count, dtype=np.int64)
    current = np.array(vec_env.reset_batch(), copy=True)
    while True:
        active = np.flatnonzero(~vec_env.done)
        if active.size == 0:
            break
        probabilities = policy.forward(current[active], lanes=active)
        actions = np.zeros(lane_count, dtype=np.int64)
        for row, lane in enumerate(active):
            # greedy_action_from may consume the lane's stream (residual
            # greedy-ε); the batched forward above consumed none, so the
            # per-stream draw order matches serial exactly.
            actions[lane] = agents[lane].greedy_action_from(probabilities[row])
        result = vec_env.step_batch(actions)
        finished: List[int] = []
        for lane in active:
            totals[lane] += result.rewards[lane]
            steps[lane] += 1
            if result.done[lane]:
                per_lane[lane].append(
                    outcome_to_stats(
                        float(totals[lane]),
                        int(steps[lane]),
                        _lane_info(vec_env, lane, result.outcomes[lane]),
                    )
                )
                totals[lane] = 0.0
                steps[lane] = 0
                remaining[lane] -= 1
                if remaining[lane] > 0:
                    finished.append(int(lane))
        if finished:
            vec_env.reset_batch(lanes=np.asarray(finished, dtype=np.int64))
        active_rows = np.flatnonzero(~vec_env.done)
        current[active_rows] = vec_env.observations[active_rows]
    return per_lane
