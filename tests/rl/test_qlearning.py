"""Tests for the GridWorld Q-learning agent."""

import numpy as np
import pytest

from repro.envs import GridWorldEnv
from repro.envs.gridworld import generate_layout
from repro.rl import LinearEpsilonDecay, QLearningAgent, QLearningConfig
from repro.rl.rollout import evaluate_success_rate


def make_agent(**overrides):
    config = QLearningConfig(hidden_sizes=(16, 16), epsilon_decay_episodes=30, **overrides)
    return QLearningAgent(config, rng=0)


class TestConfig:
    def test_invalid_discount(self):
        with pytest.raises(ValueError):
            QLearningConfig(discount=1.5)

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            QLearningConfig(batch_size=0)


class TestActionSelection:
    def test_greedy_matches_argmax(self):
        agent = make_agent()
        observation = np.zeros(6)
        action = agent.select_action(observation, explore=False)
        assert action == int(np.argmax(agent.q_values(observation)))

    def test_exploration_rate_follows_schedule(self):
        agent = make_agent()
        agent.begin_episode(0)
        early = agent.exploration_rate
        agent.begin_episode(29)
        late = agent.exploration_rate
        assert early > late

    def test_full_exploration_random(self):
        always_explore = LinearEpsilonDecay(start=1.0, end=1.0, decay_episodes=1)
        agent = QLearningAgent(QLearningConfig(hidden_sizes=(8,)), epsilon_schedule=always_explore, rng=0)
        agent.begin_episode(0)
        actions = {agent.select_action(np.zeros(6), explore=True) for _ in range(100)}
        assert len(actions) == 4

    def test_state_dict_roundtrip(self):
        agent = make_agent()
        other = QLearningAgent(QLearningConfig(hidden_sizes=(16, 16)), rng=9)
        other.load_state_dict(agent.state_dict())
        observation = np.array([0.0, -1.0, 1.0, 0.0, 1.0, -1.0])
        np.testing.assert_allclose(other.q_values(observation), agent.q_values(observation))


class TestLearning:
    def test_run_episode_returns_stats(self):
        env = GridWorldEnv(generate_layout(seed=11), max_steps=40)
        agent = make_agent()
        agent.begin_episode(0)
        stats = agent.run_episode(env, train=True)
        assert stats.steps > 0
        assert isinstance(stats.total_reward, float)

    def test_training_improves_success_rate(self):
        env = GridWorldEnv(generate_layout(seed=12), max_steps=60)
        agent = make_agent()
        before = evaluate_success_rate(agent, env, attempts=10, epsilon=0.0, rng=0)
        for episode in range(120):
            agent.begin_episode(episode)
            agent.run_episode(env, train=True)
        after = evaluate_success_rate(agent, env, attempts=10, epsilon=0.0, rng=0)
        assert after >= before
        assert after >= 0.8

    def test_no_update_before_warmup(self):
        agent = make_agent(warmup_transitions=10_000)
        env = GridWorldEnv(generate_layout(seed=13), max_steps=10)
        state_before = {k: v.copy() for k, v in agent.state_dict().items()}
        agent.begin_episode(0)
        agent.run_episode(env, train=True)
        for name, value in agent.state_dict().items():
            np.testing.assert_array_equal(value, state_before[name])

    def test_eval_episode_does_not_learn(self):
        agent = make_agent()
        env = GridWorldEnv(generate_layout(seed=14), max_steps=10)
        agent.begin_episode(0)
        agent.run_episode(env, train=False)
        assert len(agent.replay) == 0
