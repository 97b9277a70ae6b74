"""Tests for the FRL training orchestrator and the single-agent baseline."""

import numpy as np
import pytest

from repro.envs import make_gridworld_suite
from repro.federated import (
    CallbackList,
    CommunicationSchedule,
    FRLSystem,
    FederatedAgent,
    SingleAgentSystem,
    TrainingCallback,
)
from repro.rl import QLearningAgent, QLearningConfig


def tiny_system(agent_count=2, interval=1, episodes_max_steps=30):
    envs = make_gridworld_suite(agent_count=agent_count, max_steps=episodes_max_steps)
    config = QLearningConfig(hidden_sizes=(8, 8), epsilon_decay_episodes=10)
    agents = [
        FederatedAgent(i, QLearningAgent(config, rng=100 + i), envs[i]) for i in range(agent_count)
    ]
    return FRLSystem(agents, schedule=CommunicationSchedule(base_interval=interval))


class RecordingCallback(TrainingCallback):
    def __init__(self):
        self.events = []

    def on_training_start(self, system):
        self.events.append("start")

    def on_episode_start(self, system, episode):
        self.events.append(("episode_start", episode))

    def on_agent_episode_end(self, system, episode, agent_index, stats):
        self.events.append(("agent_end", episode, agent_index))

    def on_round_end(self, system, episode, communicated):
        self.events.append(("round_end", episode, communicated))

    def on_training_end(self, system):
        self.events.append("end")


class TestFRLSystem:
    def test_training_log_shapes(self):
        system = tiny_system()
        log = system.train(4)
        assert log.episodes == 4
        assert all(len(rewards) == 2 for rewards in log.episode_rewards)
        assert log.communication_count == 4

    def test_communication_respects_interval(self):
        system = tiny_system(interval=3)
        log = system.train(7)
        assert log.communication_episodes == [2, 5]

    def test_callbacks_invoked_in_order(self):
        system = tiny_system()
        callback = RecordingCallback()
        system.train(2, callbacks=[callback])
        assert callback.events[0] == "start"
        assert callback.events[-1] == "end"
        assert callback.events[1:6] == [
            ("episode_start", 0),
            ("agent_end", 0, 0),
            ("agent_end", 0, 1),
            ("round_end", 0, True),
            ("episode_start", 1),
        ]

    def test_agents_share_policy_after_round(self):
        system = tiny_system()
        # Force full consensus: with two agents, alpha = 1/n = 0.5 from round 0.
        system.server.alpha_schedule = type(system.server.alpha_schedule)(
            initial_alpha=0.5, decay=1.0
        )
        system.train(1)
        a = system.agents[0].upload_state()
        b = system.agents[1].upload_state()
        for name in a:
            np.testing.assert_allclose(a[name], b[name])

    def test_consensus_state_without_round(self):
        system = tiny_system(interval=100)
        system.train(1)
        consensus = system.consensus_state()
        assert set(consensus) == set(system.agents[0].upload_state())

    def test_corrupt_agent_overwrites_policy(self):
        system = tiny_system()
        zeros = {name: np.zeros_like(value) for name, value in system.agents[0].upload_state().items()}
        system.corrupt_agent(0, zeros)
        for value in system.agents[0].upload_state().values():
            assert np.all(value == 0)

    def test_requires_agents(self):
        with pytest.raises(ValueError):
            FRLSystem([])

    def test_negative_episodes_rejected(self):
        with pytest.raises(ValueError):
            tiny_system().train(-1)

    def test_average_success_rate_bounds(self):
        system = tiny_system()
        system.train(3)
        rate = system.average_success_rate(attempts=3)
        assert 0.0 <= rate <= 1.0

    def test_start_episode_offsets_schedule(self):
        system = tiny_system(interval=2)
        system.train(2, start_episode=1)  # episodes 1 and 2; only episode 1 communicates
        assert system.log.communication_episodes == [1]


class TestSingleAgentSystem:
    def test_training_cycles_environments(self):
        envs = make_gridworld_suite(agent_count=3, max_steps=20)
        agent = QLearningAgent(QLearningConfig(hidden_sizes=(8,)), rng=0)
        system = SingleAgentSystem(agent, envs)
        log = system.train(6)
        assert log.episodes == 6
        assert log.communication_count == 0

    def test_agent_count_is_one(self):
        envs = make_gridworld_suite(agent_count=1, max_steps=20)
        system = SingleAgentSystem(QLearningAgent(QLearningConfig(hidden_sizes=(8,)), rng=0), envs)
        assert system.agent_count == 1

    def test_corrupt_agent_bounds(self):
        envs = make_gridworld_suite(agent_count=1, max_steps=20)
        system = SingleAgentSystem(QLearningAgent(QLearningConfig(hidden_sizes=(8,)), rng=0), envs)
        with pytest.raises(IndexError):
            system.corrupt_agent(1, {})

    def test_requires_environments(self):
        with pytest.raises(ValueError):
            SingleAgentSystem(QLearningAgent(QLearningConfig(hidden_sizes=(8,)), rng=0), [])

    def test_callbacks_receive_events(self):
        envs = make_gridworld_suite(agent_count=1, max_steps=20)
        system = SingleAgentSystem(QLearningAgent(QLearningConfig(hidden_sizes=(8,)), rng=0), envs)
        callback = RecordingCallback()
        system.train(2, callbacks=CallbackList([callback]))
        assert ("round_end", 0, False) in callback.events
