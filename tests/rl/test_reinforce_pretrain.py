"""Tests for the REINFORCE agent and the offline pre-training pipeline."""

import numpy as np
import pytest

from repro.envs import DroneNavConfig, make_dronenav_suite
from repro.rl import ReinforceAgent, ReinforceConfig
from repro.rl.pretrain import (
    DroneExpertPilot,
    PretrainConfig,
    behaviour_clone,
    collect_expert_dataset,
)
from repro.rl.reinforce import discounted_returns


def tiny_drone_envs(count=1):
    config = DroneNavConfig(image_width=16, image_height=8, max_steps=60)
    return make_dronenav_suite(drone_count=count, config=config, length=250.0)


def tiny_agent(rng=0, **overrides):
    config = ReinforceConfig(input_shape=(3, 8, 16), conv_channels=(2, 4, 4), fc_hidden=16,
                             **overrides)
    return ReinforceAgent(config, rng=rng)


class TestDiscountedReturns:
    def test_no_discount_is_suffix_sum(self):
        returns = discounted_returns([1.0, 2.0, 3.0], discount=1.0)
        np.testing.assert_allclose(returns, [6.0, 5.0, 3.0])

    def test_discounting(self):
        returns = discounted_returns([0.0, 0.0, 1.0], discount=0.5)
        np.testing.assert_allclose(returns, [0.25, 0.5, 1.0])

    def test_empty(self):
        assert discounted_returns([], 0.9).size == 0


class TestReinforceAgent:
    def test_action_probabilities_valid(self):
        agent = tiny_agent()
        probabilities = agent.action_probabilities(np.zeros((3, 8, 16)))
        assert probabilities.shape == (25,)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_sampled_actions_in_range(self):
        agent = tiny_agent()
        actions = {agent.select_action(np.zeros((3, 8, 16)), explore=True) for _ in range(50)}
        assert all(0 <= a < 25 for a in actions)

    def test_greedy_action_is_argmax(self):
        agent = tiny_agent(greedy_epsilon=0.0)
        observation = np.random.default_rng(0).random((3, 8, 16))
        action = agent.select_action(observation, explore=False)
        assert action == int(np.argmax(agent.action_probabilities(observation)))

    def test_run_episode_updates_policy(self):
        agent = tiny_agent()
        env = tiny_drone_envs()[0]
        before = {k: v.copy() for k, v in agent.state_dict().items()}
        agent.run_episode(env, train=True)
        changed = any(not np.array_equal(agent.state_dict()[k], before[k]) for k in before)
        assert changed

    def test_eval_episode_does_not_update(self):
        agent = tiny_agent()
        env = tiny_drone_envs()[0]
        before = {k: v.copy() for k, v in agent.state_dict().items()}
        agent.run_episode(env, train=False)
        for name in before:
            np.testing.assert_array_equal(agent.state_dict()[name], before[name])

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ReinforceConfig(discount=0.0)


class TestExpertPilot:
    def test_action_in_range(self):
        env = tiny_drone_envs()[0]
        expert = DroneExpertPilot()
        observation = env.reset()
        assert 0 <= expert.select_action(observation) < 25

    def test_expert_survives_longer_than_random(self):
        env = tiny_drone_envs()[0]
        expert = DroneExpertPilot()
        rng = np.random.default_rng(0)

        def rollout(policy):
            observation = env.reset()
            done = False
            while not done:
                result = env.step(policy(observation))
                observation = result.observation
                done = result.done
            return env.flight_distance

        expert_distance = rollout(expert.select_action)
        random_distance = np.mean([rollout(lambda _o: int(rng.integers(0, 25))) for _ in range(3)])
        assert expert_distance >= random_distance

    def test_depth_profile_shape_validation(self):
        with pytest.raises(ValueError):
            DroneExpertPilot().depth_profile(np.zeros((8, 16)))

    def test_invalid_caution(self):
        with pytest.raises(ValueError):
            DroneExpertPilot(caution=0.0)


class TestBehaviourCloning:
    def test_collect_expert_dataset_shapes(self):
        envs = tiny_drone_envs()
        config = PretrainConfig(collection_episodes=1, max_samples=50, epochs=1,
                                dagger_iterations=0)
        observations, actions = collect_expert_dataset(envs, config, rng=0)
        assert observations.shape[0] == actions.shape[0] <= 50
        assert observations.shape[1:] == (3, 8, 16)

    def test_behaviour_clone_improves_accuracy(self):
        envs = tiny_drone_envs()
        agent = tiny_agent(learning_rate=5e-3)
        config = PretrainConfig(collection_episodes=2, max_samples=200, epochs=10,
                                batch_size=32, dagger_iterations=0)
        accuracy = behaviour_clone(agent, envs, config, rng=0)
        assert accuracy > 1.0 / 25.0  # clearly better than chance

    def test_behaviour_clone_with_dagger(self):
        envs = tiny_drone_envs()
        agent = tiny_agent()
        config = PretrainConfig(collection_episodes=1, max_samples=100, epochs=2,
                                batch_size=32, dagger_iterations=1, dagger_episodes=1)
        accuracy = behaviour_clone(agent, envs, config, rng=0)
        assert 0.0 <= accuracy <= 1.0

    def test_invalid_pretrain_config(self):
        with pytest.raises(ValueError):
            PretrainConfig(epochs=0)
        with pytest.raises(ValueError):
            PretrainConfig(exploration_noise=1.0)
