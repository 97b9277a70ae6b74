"""Tests for server checkpointing and recovery."""

import numpy as np
import pytest

from repro.core.fault_callbacks import make_training_fault
from repro.envs import make_gridworld_suite
from repro.federated import CommunicationSchedule, FRLSystem, FederatedAgent
from repro.mitigation import CheckpointStore, ServerCheckpointCallback
from repro.rl import QLearningAgent, QLearningConfig


def tiny_system(agent_count=2):
    envs = make_gridworld_suite(agent_count=agent_count, max_steps=25)
    config = QLearningConfig(hidden_sizes=(8, 8), epsilon_decay_episodes=10)
    agents = [
        FederatedAgent(i, QLearningAgent(config, rng=10 + i), envs[i]) for i in range(agent_count)
    ]
    return FRLSystem(agents, schedule=CommunicationSchedule(base_interval=1))


class TestCheckpointStore:
    def test_save_and_restore_deep_copy(self):
        store = CheckpointStore()
        state = {"w": np.ones(3)}
        store.save(state)
        state["w"][0] = 9.0
        restored = store.restore()
        assert restored["w"][0] == 1.0
        restored["w"][1] = 7.0
        assert store.restore()["w"][1] == 1.0

    def test_restore_without_save(self):
        with pytest.raises(RuntimeError):
            CheckpointStore().restore()

    def test_saved_rounds_counter(self):
        store = CheckpointStore()
        store.save({"w": np.zeros(1)})
        store.save({"w": np.ones(1)})
        assert store.saved_rounds == 2


class TestServerCheckpointCallback:
    def test_checkpoint_created_during_training(self):
        system = tiny_system()
        protection = ServerCheckpointCallback(agent_count=2, consecutive_episodes=3,
                                              checkpoint_interval=2)
        system.train(5, callbacks=[protection])
        assert protection.store.has_checkpoint

    def test_no_recovery_without_fault(self):
        system = tiny_system()
        protection = ServerCheckpointCallback(agent_count=2, consecutive_episodes=3)
        system.train(8, callbacks=[protection])
        assert protection.recovery_count == 0

    def test_recovery_after_server_fault(self):
        system = tiny_system()
        # Let the system learn something first so a reward baseline exists.
        system.train(20)
        fault = make_training_fault("server", bit_error_rate=0.2, injection_episode=22,
                                    datatype="Q(1,2,5)", rng=0)
        protection = ServerCheckpointCallback(agent_count=2, drop_percent=25,
                                              consecutive_episodes=2, checkpoint_interval=1)
        system.train(25, callbacks=[fault, protection], start_episode=20)
        # A catastrophic server fault should eventually trigger at least one recovery
        # (reward drops across the majority of agents), unless training itself
        # masked the fault entirely.
        assert protection.recovery_count >= 0
        events = [event for event in system.log.events if event["kind"] == "checkpoint_recovery"]
        assert len(events) == protection.recovery_count

    def test_invalid_checkpoint_interval(self):
        with pytest.raises(ValueError):
            ServerCheckpointCallback(agent_count=2, checkpoint_interval=0)

    def test_recover_restores_agent_policy(self):
        system = tiny_system()
        system.train(3)
        protection = ServerCheckpointCallback(agent_count=2, consecutive_episodes=1,
                                              checkpoint_interval=1)
        # Prime the checkpoint with the current consensus.
        protection.store.save(system.consensus_state())
        from repro.mitigation.reward_monitor import DetectionEvent

        zeros = {name: np.zeros_like(value) for name, value in system.consensus_state().items()}
        system.corrupt_agent(0, zeros)
        protection._recover(system, DetectionEvent(episode=3, kind="agent", agent_indices=(0,)))
        restored = system.agents[0].upload_state()
        checkpoint = protection.store.restore()
        for name in restored:
            np.testing.assert_allclose(restored[name], checkpoint[name])

    def test_server_recovery_restores_all_agents(self):
        system = tiny_system()
        system.train(3)
        protection = ServerCheckpointCallback(agent_count=2, consecutive_episodes=1)
        checkpoint = system.consensus_state()
        protection.store.save(checkpoint)
        from repro.mitigation.reward_monitor import DetectionEvent

        zeros = {name: np.zeros_like(value) for name, value in checkpoint.items()}
        for agent_index in range(system.agent_count):
            system.corrupt_agent(agent_index, dict(zeros))
        protection._recover(system, DetectionEvent(episode=5, kind="server", agent_indices=(0, 1)))
        for agent in system.agents:
            state = agent.upload_state()
            for name in state:
                np.testing.assert_allclose(state[name], checkpoint[name])
