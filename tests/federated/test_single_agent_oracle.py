"""Oracle for the single-agent baseline trained as a one-agent FRL system.

``SingleAgentSystem`` trains through ``FRLSystem.train``: its own overrides
only pick the next environment of its rotation, average evaluation over
every environment and keep faults on its one agent.  The reference below
keeps the dedicated single-agent loop it replaced, which logged an
episode's reward before ``on_agent_episode_end``; no callback reads the log
in that hook.  Two copies of one system, each with a training fault and a
checkpoint-recovery callback, must end with the same logs, reward histories,
episode stats, environment cursor, random streams and weights.
"""

from functools import partial

import numpy as np
import pytest

from repro.core.fault_callbacks import make_training_fault
from repro.core.workloads import build_drone_single_system
from repro.envs import make_gridworld_suite
from repro.federated import CallbackList, SingleAgentSystem
from repro.mitigation import ServerCheckpointCallback
from repro.rl import QLearningAgent, QLearningConfig
from repro.rl.rollout import evaluate_success_rate, greedy_episode


def reference_train(system, episodes, callbacks):
    """The dedicated single-agent loop; returns the log and the env cursor."""
    callback = CallbackList(callbacks)
    callback.on_training_start(system)
    cursor = 0
    for episode in range(episodes):
        callback.on_episode_start(system, episode)
        system.wrapper.env = system.envs[cursor % len(system.envs)]
        cursor += 1
        stats = system.wrapper.run_training_episode(episode)
        system.log.episode_rewards.append([stats.total_reward])
        callback.on_agent_episode_end(system, episode, 0, stats)
        callback.on_round_end(system, episode, False)
    callback.on_training_end(system)
    return system.log, cursor


def plain(value):
    """``value`` with arrays as (dtype, shape, bytes) and scalars as (type, repr)."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    return (type(value).__name__, repr(value))


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


def assert_same_training(system, reference, log, cursor, callbacks, reference_callbacks):
    assert log is system.log
    assert log.episode_rewards == reference.log.episode_rewards
    assert log.communication_episodes == reference.log.communication_episodes == []
    assert log.events == reference.log.events
    assert system.wrapper.reward_history == reference.wrapper.reward_history
    assert [plain(vars(stats)) for stats in system.wrapper.episode_stats] == [
        plain(vars(stats)) for stats in reference.wrapper.episode_stats
    ]
    assert system._env_cursor == cursor
    assert system.wrapper.env is system.envs[(cursor - 1) % len(system.envs)]
    assert system.agent.rng.bit_generator.state == reference.agent.rng.bit_generator.state
    for name, value in reference.agent.state_dict().items():
        assert system.agent.state_dict()[name].tobytes() == value.tobytes()
    fault, checkpoint = callbacks
    reference_fault, reference_checkpoint = reference_callbacks
    assert fault.injections == reference_fault.injections
    assert fault.injector.rng.bit_generator.state == (
        reference_fault.injector.rng.bit_generator.state
    )
    assert checkpoint.recoveries == reference_checkpoint.recoveries
    # The recovery path ran, so the comparison covers checkpoint restores.
    assert checkpoint.recovery_count > 0


@pytest.mark.parametrize("location", ["agent", "server"])
def test_gridworld_single_agent_matches_reference_loop(location):
    system, reference = gridworld_system(), gridworld_system()
    callbacks, reference_callbacks = callbacks_for(location, 11), callbacks_for(location, 11)
    log = system.train(12, callbacks=callbacks)
    _, cursor = reference_train(reference, 12, reference_callbacks)
    assert_same_training(system, reference, log, cursor, callbacks, reference_callbacks)
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
    _, cursor = reference_train(reference, episodes, reference_callbacks)
    assert_same_training(system, reference, log, cursor, callbacks, reference_callbacks)
    # Evaluation flies the agent once, greedily, over every environment.
    act = partial(reference.agent.select_action, explore=False)
    distances = [greedy_episode(act, env, 0.0, None).flight_distance for env in reference.envs]
    assert len(set(distances)) > 1
    assert system.average_flight_distance() == np.mean(distances)
