"""Shared helpers for inference-time fault experiments."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.config import DroneScale, GridWorldScale
from repro.core.workloads import drone_agent_config, gridworld_agent_config
from repro.envs.base import Environment
from repro.rl import QLearningAgent, ReinforceAgent
from repro.utils.rng import as_rng

StateDict = Dict[str, np.ndarray]


def gridworld_agent_with_state(scale: GridWorldScale, state: StateDict, rng=None) -> QLearningAgent:
    """A GridWorld agent whose Q-network holds a copy of ``state`` (greedy inference).

    The agent is built from ``state`` and runs no random init, but ``rng``
    advances as if ``QLearningAgent(config, rng)`` had been built and then
    loaded with ``state``, so every later draw on it keeps its bytes.
    """
    return QLearningAgent(gridworld_agent_config(scale), rng=as_rng(rng), state=state)


def drone_agent_with_state(scale: DroneScale, state: StateDict, rng=None) -> ReinforceAgent:
    """A DroneNav agent whose CNN policy holds ``state`` (greedy inference)."""
    agent = ReinforceAgent(drone_agent_config(scale), rng=as_rng(rng))
    agent.load_state_dict(state)
    return agent


def success_rate_over_envs(
    agent, envs: Sequence[Environment], attempts_per_env: int
) -> float:
    """Average GridWorld success rate over ``envs`` with a greedy policy."""
    from repro.rl.rollout import evaluate_success_rate

    if not envs:
        raise ValueError("success_rate_over_envs needs at least one environment")
    rates = [evaluate_success_rate(agent, env, attempts=attempts_per_env) for env in envs]
    return float(np.mean(rates))


def flight_distance_over_envs(
    agent, envs: Sequence[Environment], attempts_per_env: int
) -> float:
    """Average DroneNav safe flight distance over ``envs`` with a greedy policy."""
    from repro.rl.rollout import evaluate_flight_distance

    if not envs:
        raise ValueError("flight_distance_over_envs needs at least one environment")
    distances = [
        evaluate_flight_distance(agent, env, attempts=attempts_per_env) for env in envs
    ]
    return float(np.mean(distances))


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
    and every attempt is one :meth:`GridWorldEnv.walk` without residual ε.
    """
    from repro.rl.rollout import greedy_action_table

    if attempts_per_env <= 0:
        raise ValueError(f"attempts_per_env must be positive, got {attempts_per_env}")
    if not envs:
        raise ValueError("single_step_fault_success_rate needs at least one environment")
    rng = as_rng(rng)
    clean_agent = gridworld_agent_with_state(scale, clean_state, rng=rng)
    faulty_agent = gridworld_agent_with_state(scale, corrupted_state, rng=rng)
    successes = 0
    for env in envs:
        clean_actions = greedy_action_table(clean_agent, env)
        faulty_actions = greedy_action_table(faulty_agent, env)
        for _attempt in range(attempts_per_env):
            faulty_step = int(rng.integers(0, scale.max_steps))
            successes += env.walk(clean_actions, 0.0, rng, faulty_step, faulty_actions)
    return successes / (len(envs) * attempts_per_env)
