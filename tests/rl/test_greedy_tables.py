"""Greedy action tables against the per-step evaluation loop they replaced.

GridWorld evaluation computes each policy's greedy action in every cell from
its Q-network state alone, over the layout's distinct observations, and
walks each episode over the layout's successor table.  The references below
build ``QLearningAgent(config, rng)``, load the state into it and keep the
per-step ``select_action`` loops; tables, results, per-episode statistics,
raised errors and the random stream's state afterwards must all match for
fault-corrupted policies, NaN payloads, infinities, signed zeros and
subnormals included.
"""

import numpy as np
import pytest

from repro.core.experiments.inference_utils import (
    single_step_fault_success_rate,
    success_rate_over_envs,
)
from repro.core.workloads import gridworld_agent_config, gridworld_environments
from repro.envs.gridworld import make_gridworld_suite
from repro.faults import FaultInjector
from repro.faults.hooks import attach_activation_faults
from repro.nn import build_gridworld_q_network
from repro.nn.network import gridworld_q_values
from repro.rl import rollout
from repro.rl.base import outcome_to_stats
from repro.rl.qlearning import QLearningAgent
from repro.rl.rollout import evaluate_success_rate, greedy_action_table, greedy_episode
from repro.utils.rng import as_rng


def _init_then_load(config, rng, state):
    agent = QLearningAgent(config, rng=rng)
    agent.load_state_dict(state)
    return agent


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


def reference_success_rate(scale, state, envs, attempts_per_env, rng):
    """``success_rate_over_envs`` as it ran on an inference agent's per-step loop."""
    agent = _init_then_load(gridworld_agent_config(scale), rng, state)
    return float(np.mean([
        np.mean([reference_greedy_episode(agent, env, 0.05, rng).success
                 for _ in range(attempts_per_env)])
        for env in envs
    ]))


def reference_single_step(scale, clean_state, corrupted_state, envs, attempts_per_env, rng):
    rng = as_rng(rng)
    config = gridworld_agent_config(scale)
    clean_agent = _init_then_load(config, rng, clean_state)
    faulty_agent = _init_then_load(config, rng, corrupted_state)
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
        [("transient", 0.005), ("transient", 0.02), ("transient", 0.1), ("stuck-at-1", 0.05),
         ("stuck-at-0", 0.05)]
    ):
        injector = FaultInjector(datatype="Q(1,2,5)", model=model, rng=seed)
        states.append(injector.corrupt_state_dict(clean, ber))
    return states


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


def _unaligned(state):
    """``state`` as views starting one float into fresh buffers (8-byte aligned only)."""
    views = {}
    for name, value in state.items():
        buffer = np.empty(value.size + 1)
        buffer[1:] = value.reshape(-1)
        views[name] = buffer[1:].reshape(value.shape)
    return views


@pytest.fixture(scope="module")
def states(tiny_gridworld_policies):
    return _corrupted_states(tiny_gridworld_policies["consensus"])


def _minus_inf_bias(state):
    """``state`` with one ``-inf`` hidden bias: the ReLU's ``x * (x > 0)`` turns it into NaN."""
    biased = dict(state, **{"0.bias": state["0.bias"].copy()})
    biased["0.bias"][3] = -np.inf
    return biased


@pytest.fixture(scope="module")
def cases(states):
    """Every corrupted state, special values planted in three, and unaligned views."""
    return states + [_nonfinite(state, offset) for offset, state in enumerate(states[:2])] + [
        _minus_inf_bias(states[0]),
        _unaligned(states[0]),
        _unaligned(_nonfinite(states[3], 2)),
    ]


def test_state_tables_match_the_per_step_agent(tiny_gridworld_scale, cases):
    config = gridworld_agent_config(tiny_gridworld_scale)
    for seed, state in enumerate(cases):
        agent = _init_then_load(config, seed, state)
        for env in gridworld_environments(tiny_gridworld_scale):
            rows, cols = env.layout.shape
            with np.errstate(all="ignore"):
                expected = [
                    agent.select_action(env.observe((row, col)), explore=False)
                    for row in range(rows)
                    for col in range(cols)
                ]
                actions = greedy_action_table(state, env)
            assert actions == expected
            assert all(type(action) is int for action in actions)


@pytest.mark.parametrize("state_index", [0, 3])
def test_tables_run_one_row_exact_forwards(tiny_gridworld_scale, states, state_index, monkeypatch):
    # State 0 holds the trained float weights, where a (rows, F) batch would
    # move row bytes; state 3 holds fault-corrupted Q(1,2,5) values.
    calls = []

    def spy(state, observations):
        q_values = gridworld_q_values(state, observations)
        calls.append((observations, q_values))
        return q_values

    monkeypatch.setattr(rollout, "gridworld_q_values", spy)
    env = gridworld_environments(tiny_gridworld_scale)[0]
    greedy_action_table(states[state_index], env)
    [(observations, q_values)] = calls
    rows, _ = env.layout.distinct_observations(env.observation_mode)
    assert observations.shape == (len(rows), 1, rows.shape[1])
    config = gridworld_agent_config(tiny_gridworld_scale)
    network = _init_then_load(config, 0, states[state_index]).network
    for row in range(len(rows)):
        assert q_values[row, 0].tobytes() == network.forward(rows[row : row + 1])[0].tobytes()


def _full_cell_table(network, env):
    """The greedy table of every cell through one stacked ``Sequential`` forward."""
    table = env.layout.observation_table(env.observation_mode)
    flat = table.reshape(-1, table.shape[-1])
    return np.argmax(network.forward(flat[:, None, :])[:, 0], axis=1).tolist()


@pytest.mark.parametrize("mode", ["local", "goal_direction"])
def test_distinct_row_tables_equal_full_cell_tables(tiny_gridworld_scale, mode):
    observation_size = 4 if mode == "local" else 6
    suites = [
        make_gridworld_suite(12, 10, 100, observation_mode=mode),
        make_gridworld_suite(
            tiny_gridworld_scale.agent_count,
            tiny_gridworld_scale.grid_size,
            tiny_gridworld_scale.max_steps,
            observation_mode=mode,
        ),
    ]
    networks = []
    for seed, hidden_sizes in enumerate([(16, 16), (32, 32), (8,)]):
        network = build_gridworld_q_network(observation_size, 4, hidden_sizes, rng=seed)
        networks.append(network)
        for ber in (0.01, 0.1):
            corrupted = build_gridworld_q_network(observation_size, 4, hidden_sizes, rng=seed)
            injector = FaultInjector(datatype="Q(1,2,5)", rng=seed)
            corrupted.load_state_dict(injector.corrupt_state_dict(network.state_dict(), ber))
            networks.append(corrupted)
    special = build_gridworld_q_network(observation_size, 4, (16, 16), rng=9)
    special.load_state_dict(_nonfinite(special.state_dict(), 1))
    networks.append(special)
    for network in networks:
        state = network.state_dict()
        for envs in suites:
            for env in envs:
                with np.errstate(all="ignore"):
                    assert greedy_action_table(state, env) == _full_cell_table(network, env)


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_success_rate_matches_the_per_step_loop(tiny_gridworld_scale, states, epsilon):
    config = gridworld_agent_config(tiny_gridworld_scale)
    envs = gridworld_environments(tiny_gridworld_scale)
    rates = []
    for state_index, state in enumerate(states):
        for env in envs:
            agent = _init_then_load(config, state_index, state)
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
    config = gridworld_agent_config(tiny_gridworld_scale)
    env = gridworld_environments(tiny_gridworld_scale)[0]
    agent = _init_then_load(config, 9, states[2])
    twin = _init_then_load(config, 9, states[2])
    rate = evaluate_success_rate(agent, env, attempts=5, epsilon=0.05)
    expected = np.mean(
        [reference_greedy_episode(twin, env, 0.05, twin.rng).success for _ in range(5)]
    )
    assert rate == expected
    assert agent.rng.bit_generator.state == twin.rng.bit_generator.state


def test_state_evaluations_match_the_agent_path(tiny_gridworld_scale, cases):
    envs = gridworld_environments(tiny_gridworld_scale)
    for seed, state in enumerate(cases):
        for env_set in (envs, envs[:1]):
            rng = np.random.default_rng(seed)
            reference_rng = np.random.default_rng(seed)
            with np.errstate(all="ignore"):
                rate = success_rate_over_envs(tiny_gridworld_scale, state, env_set, 4, rng)
                expected = reference_success_rate(
                    tiny_gridworld_scale, state, env_set, 4, reference_rng
                )
            assert rate == expected
            assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_episode_statistics_match(tiny_gridworld_scale, states):
    config = gridworld_agent_config(tiny_gridworld_scale)
    for env in gridworld_environments(tiny_gridworld_scale):
        for state in states:
            agent = _init_then_load(config, 1, state)
            actions = greedy_action_table(state, env)
            cols = env.layout.shape[1]
            rng = np.random.default_rng(4)
            reference_rng = np.random.default_rng(4)
            for _ in range(3):
                stats = greedy_episode(
                    lambda _o: actions[env.position[0] * cols + env.position[1]], env, 0.05, rng
                )
                assert stats == reference_greedy_episode(agent, env, 0.05, reference_rng)


def test_single_step_fault_matches_the_per_step_loop(tiny_gridworld_scale, cases):
    envs = gridworld_environments(tiny_gridworld_scale)
    clean = cases[0]
    for seed, corrupted in enumerate(cases[1:]):
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            rate = single_step_fault_success_rate(
                tiny_gridworld_scale, clean, corrupted, envs, 4, rng
            )
            expected = reference_single_step(
                tiny_gridworld_scale, clean, corrupted, envs, 4, reference_rng
            )
        assert rate == expected
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_network_with_activation_hook_is_rejected(tiny_gridworld_scale, states):
    env = gridworld_environments(tiny_gridworld_scale)[0]
    agent = _init_then_load(gridworld_agent_config(tiny_gridworld_scale), 0, states[0])
    attach_activation_faults(agent.network, FaultInjector(datatype="Q(1,2,5)", rng=0), 0.1)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    agent_before = agent.rng.bit_generator.state
    with pytest.raises(TypeError, match="ActivationFaultHook"):
        evaluate_success_rate(agent, env, attempts=2, epsilon=0.05, rng=rng)
    with pytest.raises(TypeError, match="ActivationFaultHook"):
        evaluate_success_rate(agent, env, attempts=2, epsilon=0.05)
    assert rng.bit_generator.state == before
    assert agent.rng.bit_generator.state == agent_before


def _mismatched_states(clean):
    missing = dict(clean)
    del missing["2.bias"]
    unexpected = dict(clean, **{"6.weight": np.zeros((2, 2))})
    misshaped = dict(clean, **{"0.weight": np.zeros(clean["0.weight"].shape[::-1])})
    misshaped_bias = dict(clean, **{"4.bias": np.zeros(5)})
    return [missing, unexpected, misshaped, misshaped_bias]


def test_state_mismatches_raise_as_before(tiny_gridworld_scale, states):
    config = gridworld_agent_config(tiny_gridworld_scale)
    envs = gridworld_environments(tiny_gridworld_scale)
    for seed, state in enumerate(_mismatched_states(states[0])):
        reference_rng = np.random.default_rng(seed)
        with pytest.raises((KeyError, ValueError)) as expected:
            _init_then_load(config, reference_rng, state)
        rng = np.random.default_rng(seed)
        with pytest.raises(expected.type) as raised:
            success_rate_over_envs(tiny_gridworld_scale, state, envs, 2, rng)
        assert str(raised.value) == str(expected.value)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        # Trans-1 checks the clean state, then the corrupted one.
        reference_rng = np.random.default_rng(seed)
        _init_then_load(config, reference_rng, states[1])
        with pytest.raises(expected.type):
            _init_then_load(config, reference_rng, state)
        rng = np.random.default_rng(seed)
        with pytest.raises(expected.type) as raised:
            single_step_fault_success_rate(tiny_gridworld_scale, states[1], state, envs, 2, rng)
        assert str(raised.value) == str(expected.value)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


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
    with pytest.raises(ValueError):
        success_rate_over_envs(tiny_gridworld_scale, states[0], envs, attempts, rng)
    assert rng.bit_generator.state == before
