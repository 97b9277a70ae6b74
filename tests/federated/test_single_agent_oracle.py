"""The single-agent baseline, a one-agent FRL system, against the serial loop.

``SingleAgentSystem`` trains through ``FRLSystem.train``, the one FRL
training loop: its own overrides only pick the next environment of its
rotation, average evaluation over every environment and keep faults on its
one agent.  The reference is ``serial_oracle.serial_train``, one agent
episode at a time.  Two copies of one system, each with a training fault and
a checkpoint-recovery callback, must end with the same logs, events,
weights, environment cursor, agent and callback streams and callback
records.  (A drone lane's ``EpisodeStats.info`` holds only its outcome and
flight distance, so per-episode stats are not compared; no callback reads
more than the reward.)
"""

from functools import partial

import numpy as np
import pytest

from repro.core.fault_callbacks import make_training_fault
from repro.core.workloads import build_drone_single_system
from repro.envs import make_gridworld_suite
from repro.federated import SingleAgentSystem
from repro.mitigation import ServerCheckpointCallback
from repro.rl import QLearningAgent, QLearningConfig
from repro.rl.rollout import evaluate_success_rate, greedy_episode

from serial_oracle import serial_train, training_record


def gridworld_system():
    envs = make_gridworld_suite(agent_count=3, max_steps=20)
    config = QLearningConfig(hidden_sizes=(8, 8), epsilon_decay_episodes=10)
    return SingleAgentSystem(QLearningAgent(config, rng=7), envs)


def callbacks_for(location, seed):
    fault = make_training_fault(
        location=location, bit_error_rate=0.05, injection_episode=3, rng=seed
    )
    checkpoint = ServerCheckpointCallback(
        agent_count=1, drop_percent=5.0, consecutive_episodes=1, baseline_window=3
    )
    return [fault, checkpoint]


def assert_same_training(system, reference, log, episodes, callbacks, reference_callbacks):
    assert log is system.log
    assert log.communication_episodes == []
    assert training_record(system, callbacks) == training_record(reference, reference_callbacks)
    assert system._env_cursor == reference._env_cursor == episodes
    assert system.wrapper.env is system.envs[(episodes - 1) % len(system.envs)]
    # The recovery path ran, so the comparison covers checkpoint restores.
    assert callbacks[1].recovery_count > 0


@pytest.mark.parametrize("location", ["agent", "server"])
def test_gridworld_single_agent_matches_reference_loop(location):
    system, reference = gridworld_system(), gridworld_system()
    callbacks, reference_callbacks = callbacks_for(location, 11), callbacks_for(location, 11)
    log = system.train(12, callbacks=callbacks)
    serial_train(reference, 12, reference_callbacks)
    assert_same_training(system, reference, log, 12, callbacks, reference_callbacks)
    # Evaluation averages the agent over every environment of the rotation,
    # drawing its residual ε from the agent's stream.
    assert system.average_success_rate(attempts=3) == np.mean(
        [evaluate_success_rate(reference.agent, env, attempts=3) for env in reference.envs]
    )
    assert system.agent.rng.bit_generator.state == reference.agent.rng.bit_generator.state


def test_drone_single_agent_matches_reference_loop(tiny_drone_scale, tiny_drone_policy):
    def build():
        return build_drone_single_system(
            tiny_drone_scale, initial_state=tiny_drone_policy["policy"], environment_count=2
        )

    system, reference = build(), build()
    callbacks, reference_callbacks = callbacks_for("server", 5), callbacks_for("server", 5)
    episodes = tiny_drone_scale.fine_tune_episodes + 3
    log = system.train(episodes, callbacks=callbacks)
    serial_train(reference, episodes, reference_callbacks)
    assert_same_training(system, reference, log, episodes, callbacks, reference_callbacks)
    # Evaluation flies the agent once, greedily, over every environment.
    act = partial(reference.agent.select_action, explore=False)
    distances = [greedy_episode(act, env, 0.0, None).flight_distance for env in reference.envs]
    assert len(set(distances)) > 1
    assert system.average_flight_distance() == np.mean(distances)
