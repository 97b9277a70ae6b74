"""Greedy action tables against the per-step evaluation loop they replaced.

GridWorld evaluation looks up each step's greedy action in a per-cell table
computed by one stacked forward, and walks each episode over the layout's
successor table.  The references below keep the per-step ``select_action``
loops; results, per-episode statistics and the random stream's state
afterwards must all match for fault-corrupted policies.  Inference agents
are built from their state; the reference builds a randomly initialised
agent and loads the state into it, and the stream state, every parameter's
bytes and the greedy tables must match, NaN and infinities included.
"""

import numpy as np
import pytest

from repro.core.experiments.inference_utils import (
    gridworld_agent_with_state,
    single_step_fault_success_rate,
    success_rate_over_envs,
)
from repro.core.workloads import gridworld_agent_config, gridworld_environments
from repro.envs.gridworld import enumerate_observations
from repro.faults import FaultInjector
from repro.faults.hooks import attach_activation_faults
from repro.rl.base import outcome_to_stats
from repro.rl.qlearning import QLearningAgent
from repro.rl.rollout import evaluate_success_rate, greedy_action_table, greedy_episode
from repro.utils.rng import as_rng


def reference_greedy_episode(agent, env, epsilon, rng):
    observation = env.reset()
    total_reward = 0.0
    steps = 0
    last_info = {}
    done = False
    while not done:
        if epsilon > 0.0 and rng.random() < epsilon:
            action = int(rng.integers(0, env.action_count))
        else:
            action = agent.select_action(observation, explore=False)
        result = env.step(action)
        total_reward += result.reward
        steps += 1
        last_info = result.info
        observation = result.observation
        done = result.done
    return outcome_to_stats(total_reward, steps, last_info)


def reference_single_step(scale, clean_state, corrupted_state, envs, attempts_per_env, rng):
    rng = as_rng(rng)
    clean_agent = gridworld_agent_with_state(scale, clean_state, rng=rng)
    faulty_agent = gridworld_agent_with_state(scale, corrupted_state, rng=rng)
    successes = 0
    total = 0
    for env in envs:
        for _attempt in range(attempts_per_env):
            faulty_step = int(rng.integers(0, scale.max_steps))
            observation = env.reset()
            done = False
            step = 0
            outcome = ""
            while not done:
                actor = faulty_agent if step == faulty_step else clean_agent
                action = actor.select_action(observation, explore=False)
                result = env.step(action)
                observation = result.observation
                done = result.done
                outcome = str(result.info.get("outcome", ""))
                step += 1
            successes += int(outcome == "goal")
            total += 1
    return successes / total if total else 0.0


def _corrupted_states(clean):
    states = [clean]
    for seed, (model, ber) in enumerate(
        [("transient", 0.005), ("transient", 0.02), ("transient", 0.1), ("stuck-at-1", 0.05)]
    ):
        injector = FaultInjector(datatype="Q(1,2,5)", model=model, rng=seed)
        states.append(injector.corrupt_state_dict(clean, ber))
    return states


@pytest.fixture(scope="module")
def states(tiny_gridworld_policies):
    return _corrupted_states(tiny_gridworld_policies["consensus"])


def test_greedy_actions_match_per_row_argmax(tiny_gridworld_scale, states):
    observations = enumerate_observations(6)
    nan_rows = np.where(np.arange(observations.size).reshape(observations.shape) % 7 == 0,
                        np.nan, observations)
    for state in states:
        agent = gridworld_agent_with_state(tiny_gridworld_scale, state, rng=0)
        for rows in (observations, nan_rows):
            with np.errstate(all="ignore"):
                expected = [agent.select_action(row, explore=False) for row in rows]
                assert agent.greedy_actions(rows).tolist() == expected


@pytest.mark.parametrize("state_index", [0, 3])
def test_greedy_actions_run_one_row_exact_forward(tiny_gridworld_scale, states, state_index):
    # State 0 holds the trained float weights, where a (rows, F) batch would
    # move row bytes; state 3 holds fault-corrupted Q(1,2,5) values.
    observations = enumerate_observations(6)
    agent = gridworld_agent_with_state(tiny_gridworld_scale, states[state_index], rng=0)
    forward = agent.network.forward
    calls = []

    def spy(inputs):
        output = forward(inputs)
        calls.append((inputs.shape, output))
        return output

    agent.network.forward = spy
    agent.greedy_actions(observations)
    del agent.network.forward
    assert [shape for shape, _ in calls] == [(len(observations), 1, 6)]
    stacked = calls[0][1]
    for row in range(len(observations)):
        expected = forward(observations[row : row + 1])[0].tobytes()
        assert stacked[row, 0].tobytes() == expected


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_success_rate_matches_the_per_step_loop(tiny_gridworld_scale, states, epsilon):
    envs = gridworld_environments(tiny_gridworld_scale)
    rates = []
    for state_index, state in enumerate(states):
        for env in envs:
            agent = gridworld_agent_with_state(tiny_gridworld_scale, state, rng=state_index)
            rng = np.random.default_rng(100 + state_index)
            reference_rng = np.random.default_rng(100 + state_index)
            rate = evaluate_success_rate(agent, env, attempts=6, epsilon=epsilon, rng=rng)
            expected = np.mean(
                [reference_greedy_episode(agent, env, epsilon, reference_rng).success
                 for _ in range(6)]
            )
            assert rate == expected
            assert rng.bit_generator.state == reference_rng.bit_generator.state
            rates.append(rate)
    assert 0.0 < max(rates) and min(rates) < 1.0


def test_agent_stream_advances_as_in_the_per_step_loop(tiny_gridworld_scale, states):
    env = gridworld_environments(tiny_gridworld_scale)[0]
    agent = gridworld_agent_with_state(tiny_gridworld_scale, states[2], rng=9)
    twin = gridworld_agent_with_state(tiny_gridworld_scale, states[2], rng=9)
    rate = evaluate_success_rate(agent, env, attempts=5, epsilon=0.05)
    expected = np.mean(
        [reference_greedy_episode(twin, env, 0.05, twin.rng).success for _ in range(5)]
    )
    assert rate == expected
    assert agent.rng.bit_generator.state == twin.rng.bit_generator.state


def test_episode_statistics_match(tiny_gridworld_scale, states):
    for env in gridworld_environments(tiny_gridworld_scale):
        for state in states:
            agent = gridworld_agent_with_state(tiny_gridworld_scale, state, rng=1)
            actions = greedy_action_table(agent, env)
            cols = env.layout.shape[1]
            rng = np.random.default_rng(4)
            reference_rng = np.random.default_rng(4)
            for _ in range(3):
                stats = greedy_episode(
                    lambda _o: actions[env.position[0] * cols + env.position[1]], env, 0.05, rng
                )
                assert stats == reference_greedy_episode(agent, env, 0.05, reference_rng)


def test_single_step_fault_matches_the_per_step_loop(tiny_gridworld_scale, states):
    envs = gridworld_environments(tiny_gridworld_scale)
    clean = states[0]
    for seed, corrupted in enumerate(states[1:]):
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        rate = single_step_fault_success_rate(tiny_gridworld_scale, clean, corrupted, envs, 4, rng)
        expected = reference_single_step(
            tiny_gridworld_scale, clean, corrupted, envs, 4, reference_rng
        )
        assert rate == expected
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_network_with_activation_hook_is_rejected(tiny_gridworld_scale, states):
    env = gridworld_environments(tiny_gridworld_scale)[0]
    agent = gridworld_agent_with_state(tiny_gridworld_scale, states[0], rng=0)
    attach_activation_faults(agent.network, FaultInjector(datatype="Q(1,2,5)", rng=0), 0.1)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(TypeError, match="ActivationFaultHook"):
        evaluate_success_rate(agent, env, attempts=2, epsilon=0.05, rng=rng)
    with pytest.raises(TypeError, match="ActivationFaultHook"):
        agent.greedy_actions(enumerate_observations(6))
    assert rng.bit_generator.state == before


#: NaN payloads of both signs, infinities, signed zeros and a subnormal.
SPECIAL_VALUES = np.concatenate([
    np.array([0x7FF8000000000123, 0xFFF0000000000001, 0x7FF0000000000F00], np.uint64)
    .view(np.float64),
    [np.inf, -np.inf, 0.0, -0.0, 5e-324],
])


def _nonfinite(state, offset):
    """``state`` with the special values written across every parameter."""
    corrupted = {}
    for name, value in state.items():
        value = value.copy()
        flat = value.reshape(-1)
        positions = (offset + 3 * np.arange(flat.size)) % flat.size
        count = min(flat.size, SPECIAL_VALUES.size)
        flat[positions[:count]] = SPECIAL_VALUES[:count]
        corrupted[name] = value
    return corrupted


def _init_then_load(config, rng, state):
    agent = QLearningAgent(config, rng=rng)
    agent.load_state_dict(state)
    return agent


def test_state_built_agents_match_init_then_load(tiny_gridworld_scale, states):
    config = gridworld_agent_config(tiny_gridworld_scale)
    envs = gridworld_environments(tiny_gridworld_scale)
    cases = states + [_nonfinite(state, offset) for offset, state in enumerate(states[:2])]
    for seed, state in enumerate(cases):
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        agent = gridworld_agent_with_state(tiny_gridworld_scale, state, rng=rng)
        reference = _init_then_load(config, reference_rng, state)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        parameters = list(agent.network.named_parameters())
        expected = list(reference.network.named_parameters())
        assert [name for name, _ in parameters] == [name for name, _ in expected]
        for (_, parameter), (_, reference_parameter) in zip(parameters, expected):
            assert parameter.value.dtype == reference_parameter.value.dtype
            assert parameter.value.shape == reference_parameter.value.shape
            assert parameter.value.tobytes() == reference_parameter.value.tobytes()
            assert parameter.grad.tobytes() == reference_parameter.grad.tobytes()
        with np.errstate(all="ignore"):
            for env in envs:
                assert greedy_action_table(agent, env) == greedy_action_table(reference, env)


def _mismatched_states(clean):
    missing = dict(clean)
    del missing["2.bias"]
    unexpected = dict(clean, **{"6.weight": np.zeros((2, 2))})
    misshaped = dict(clean, **{"0.weight": np.zeros(clean["0.weight"].shape[::-1])})
    return [missing, unexpected, misshaped]


def test_state_mismatches_raise_as_before(tiny_gridworld_scale, states):
    config = gridworld_agent_config(tiny_gridworld_scale)
    for seed, state in enumerate(_mismatched_states(states[0])):
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        with pytest.raises((KeyError, ValueError)) as expected:
            _init_then_load(config, reference_rng, state)
        with pytest.raises(expected.type) as raised:
            QLearningAgent(config, rng=rng, state=state)
        assert str(raised.value) == str(expected.value)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_state_arrays_are_copied_not_aliased(tiny_gridworld_scale, states):
    state = {name: value.copy() for name, value in states[1].items()}
    agent = gridworld_agent_with_state(tiny_gridworld_scale, state, rng=0)
    for name, parameter in agent.network.named_parameters():
        assert not np.shares_memory(parameter.value, state[name])
        assert parameter.value.flags.writeable
    before = agent.state_dict()
    for value in state.values():
        value += 1.0
    after = agent.state_dict()
    assert all(after[name].tobytes() == before[name].tobytes() for name in before)


@pytest.mark.parametrize("attempts, env_count", [(0, 2), (-1, 2), (3, 0), (0, 0)])
def test_evaluations_without_attempts_raise_before_drawing(
    tiny_gridworld_scale, states, attempts, env_count
):
    envs = list(gridworld_environments(tiny_gridworld_scale))[:env_count]
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        single_step_fault_success_rate(
            tiny_gridworld_scale, states[0], states[1], envs, attempts, rng
        )
    assert rng.bit_generator.state == before
    agent = gridworld_agent_with_state(tiny_gridworld_scale, states[0], rng=7)
    before = agent.rng.bit_generator.state
    with pytest.raises(ValueError):
        success_rate_over_envs(agent, envs, attempts)
    assert agent.rng.bit_generator.state == before
