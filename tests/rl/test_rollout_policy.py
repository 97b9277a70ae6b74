"""Tests for rollout evaluation helpers and policy statistics."""

from functools import partial

import numpy as np
import pytest

from repro.envs import GridWorldEnv
from repro.envs.gridworld import generate_layout
from repro.nn import build_gridworld_q_network
from repro.nn.losses import softmax
from repro.rl import QLearningAgent, QLearningConfig
from repro.rl.policy import consensus_policy_std, policy_action_distribution
from repro.rl.rollout import evaluate_success_rate, greedy_episode


def make_env(seed=21):
    return GridWorldEnv(generate_layout(seed=seed), max_steps=30)


def make_agent():
    return QLearningAgent(QLearningConfig(hidden_sizes=(8, 8)), rng=0)


class TestRollout:
    def test_greedy_episode_stats(self):
        act = partial(make_agent().select_action, explore=False)
        stats = greedy_episode(act, make_env(), 0.0, np.random.default_rng(0))
        assert stats.steps > 0
        assert stats.success in (True, False)

    def test_epsilon_validation(self):
        act = partial(make_agent().select_action, explore=False)
        with pytest.raises(ValueError):
            greedy_episode(act, make_env(), 1.5, np.random.default_rng(0))

    def test_success_rate_bounds(self):
        rate = evaluate_success_rate(make_agent(), make_env(), attempts=5, rng=0)
        assert 0.0 <= rate <= 1.0

    def test_success_rate_attempts_validation(self):
        with pytest.raises(ValueError):
            evaluate_success_rate(make_agent(), make_env(), attempts=0)

    def test_success_rate_deterministic_with_zero_epsilon(self):
        agent = make_agent()
        env = make_env()
        a = evaluate_success_rate(agent, env, attempts=4, epsilon=0.0, rng=0)
        b = evaluate_success_rate(agent, env, attempts=4, epsilon=0.0, rng=1)
        assert a == b


class TestPolicyStatistics:
    def test_policy_action_distribution_shape(self):
        network = build_gridworld_q_network(observation_size=4, hidden_sizes=(8,), rng=0)
        distribution = policy_action_distribution(network.state_dict())
        assert distribution.shape == (81, 4)
        np.testing.assert_allclose(distribution.sum(axis=1), np.ones(81))

    def test_policy_action_distribution_is_the_network_softmax(self):
        network = build_gridworld_q_network(observation_size=6, hidden_sizes=(8, 8), rng=0)
        observations = np.random.default_rng(0).choice([-1.0, 0.0, 1.0], size=(10, 6))
        distribution = policy_action_distribution(network.state_dict(), observations)
        assert distribution.tobytes() == softmax(network.forward(observations), axis=1).tobytes()

    def test_policy_statistics_reject_garbage(self):
        with pytest.raises(KeyError):
            consensus_policy_std({"weights": np.zeros((2, 2))})
        with pytest.raises(KeyError):
            consensus_policy_std({})

    def test_consensus_policy_std_range(self):
        network = build_gridworld_q_network(observation_size=6, hidden_sizes=(8, 8), rng=0)
        std = consensus_policy_std(network.state_dict())
        assert 0.0 <= std <= 0.5

    def test_sharper_policy_has_larger_std(self):
        network = build_gridworld_q_network(observation_size=6, hidden_sizes=(8, 8), rng=0)
        state = network.state_dict()
        sharper = {name: value * 10.0 for name, value in state.items()}
        assert consensus_policy_std(sharper) > consensus_policy_std(state)
