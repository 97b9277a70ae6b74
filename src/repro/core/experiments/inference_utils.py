"""Shared helpers for inference-time fault experiments."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.config import DroneScale, GridWorldScale
from repro.core.workloads import drone_agent_config, gridworld_agent_config
from repro.envs.base import Environment
from repro.nn.network import check_gridworld_q_state
from repro.rl import ReinforceAgent
from repro.rl.rollout import greedy_action_table, greedy_flight_distances
from repro.utils.rng import as_rng, child_seeds

StateDict = Dict[str, np.ndarray]


def _inference_agent_draw(scale: GridWorldScale, state: StateDict, rng) -> None:
    """The draw and the check of the ``QLearningAgent`` GridWorld inference once built.

    ``rng`` makes the agent's init draw, the layer seeds, so every later
    draw and every payload keeps its bytes, and ``state`` raises what
    loading it into the agent raised.
    """
    config = gridworld_agent_config(scale)
    child_seeds(rng, len(config.hidden_sizes) + 1)
    check_gridworld_q_state(
        state, config.observation_size, config.action_count, config.hidden_sizes
    )


def drone_agent_with_state(scale: DroneScale, state: StateDict, rng=None) -> ReinforceAgent:
    """A DroneNav agent whose CNN policy holds ``state`` (greedy inference)."""
    agent = ReinforceAgent(drone_agent_config(scale), rng=as_rng(rng))
    agent.load_state_dict(state)
    return agent


def success_rate_over_envs(
    scale: GridWorldScale, state: StateDict, envs: Sequence[Environment], attempts_per_env: int, rng
) -> float:
    """Average GridWorld success rate over ``envs`` of the greedy policy ``state``.

    After :func:`_inference_agent_draw`, every attempt is one
    :meth:`GridWorldEnv.walk` with residual ε 0.05 on ``rng``, as
    :func:`~repro.rl.rollout.evaluate_success_rate` runs it.
    """
    if not envs:
        raise ValueError("success_rate_over_envs needs at least one environment")
    if attempts_per_env <= 0:
        raise ValueError(f"attempts_per_env must be positive, got {attempts_per_env}")
    rng = as_rng(rng)
    _inference_agent_draw(scale, state, rng)
    rates = []
    for env in envs:
        actions = greedy_action_table(state, env)
        successes = sum(env.walk(actions, 0.05, rng) for _ in range(attempts_per_env))
        rates.append(successes / attempts_per_env)
    return float(np.mean(rates))


def flight_distance_over_envs(agent, envs: Sequence[Environment]) -> float:
    """Average DroneNav safe flight distance over ``envs`` with a greedy policy.

    One greedy flight per environment, all of them lanes of one lockstep pass.
    """
    if not envs:
        raise ValueError("flight_distance_over_envs needs at least one environment")
    return float(np.mean(greedy_flight_distances([(agent, env) for env in envs])))


def single_step_fault_success_rate(
    scale: GridWorldScale,
    clean_state: StateDict,
    corrupted_state: StateDict,
    envs: Sequence[Environment],
    attempts_per_env: int,
    rng=None,
) -> float:
    """Success rate when the fault affects only one action step (Trans-1).

    For every attempt one step index is drawn at random; at that step the
    action is computed with the corrupted policy (a faulty read register),
    every other step uses the clean policy (memory is intact).  Both
    policies' greedy actions are looked up in per-environment cell tables,
    and every attempt is one :meth:`GridWorldEnv.walk` without residual ε,
    after :func:`_inference_agent_draw` for each policy.
    """
    if attempts_per_env <= 0:
        raise ValueError(f"attempts_per_env must be positive, got {attempts_per_env}")
    if not envs:
        raise ValueError("single_step_fault_success_rate needs at least one environment")
    rng = as_rng(rng)
    _inference_agent_draw(scale, clean_state, rng)
    _inference_agent_draw(scale, corrupted_state, rng)
    successes = 0
    for env in envs:
        clean_actions = greedy_action_table(clean_state, env)
        faulty_actions = greedy_action_table(corrupted_state, env)
        for _attempt in range(attempts_per_env):
            faulty_step = int(rng.integers(0, scale.max_steps))
            successes += env.walk(clean_actions, 0.0, rng, faulty_step, faulty_actions)
    return successes / (len(envs) * attempts_per_env)
