"""The serial FRL training loop: the reference the one training loop is held to.

``FRLSystem.train`` runs ``federated/lockstep.train_group_lockstep``, which
trains an episode's REINFORCE agents as lanes of one stacked policy and
fires the per-agent hooks once every lane has finished.  :func:`serial_train`
keeps the loop that replaced: per episode, ``on_episode_start``; then per
agent in order ``begin_episode``, ``run_episode(env, train=True)`` and
``on_agent_episode_end``; then the system's ``end_episode``.  Its signature
is ``FRLSystem.train``'s, so a test can patch it in to run a cell serially.

:func:`training_record` collects what training leaves behind, so two runs
compare in one assertion: the log, every agent's weights and stream, the
server's consensus and each callback's records and streams.
"""

import numpy as np

from repro.core.fault_callbacks import TrainingFaultCallback
from repro.federated import CallbackList
from repro.mitigation import ServerCheckpointCallback


def serial_train(system, episodes, callbacks=None, start_episode=0):
    """Train ``system`` one agent episode at a time; returns its log."""
    if episodes < 0:
        raise ValueError(f"episodes must be non-negative, got {episodes}")
    callback = callbacks if isinstance(callbacks, CallbackList) else CallbackList(callbacks or [])
    callback.on_training_start(system)
    for episode in range(start_episode, start_episode + episodes):
        callback.on_episode_start(system, episode)
        rewards = []
        for fed in system.episode_agents():
            fed.agent.begin_episode(episode)
            stats = fed.agent.run_episode(fed.env, train=True)
            rewards.append(stats.total_reward)
            callback.on_agent_episode_end(system, episode, fed.index, stats)
        system.end_episode(episode, rewards, callback)
    callback.on_training_end(system)
    return system.log


def plain(value):
    """``value`` with arrays as (dtype, shape, bytes) and floats as their bytes."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (float, np.floating)):
        return np.float64(value).tobytes()
    return value


def _callback_record(callback):
    if isinstance(callback, TrainingFaultCallback):
        return {
            "injections": plain(callback.injections),
            "stream": callback.injector.rng.bit_generator.state,
            "bits": callback.injector.total_injected_bits(),
            "hooks": len(callback._active_hooks),
        }
    if isinstance(callback, ServerCheckpointCallback):
        store = callback.store
        return {
            "recoveries": list(callback.recoveries),
            "detections": list(callback.detector.events),
            "saved_rounds": store.saved_rounds,
            "checkpoint": plain(store.checkpoint) if store.has_checkpoint else None,
            "episode_rewards": plain(callback._episode_rewards),
        }
    raise TypeError(f"no record for {type(callback).__name__}")


def training_record(system, callbacks=()):
    """Everything ``system``'s training and ``callbacks`` leave behind, comparable with ``==``."""
    consensus = system.server.consensus
    return {
        "episode_rewards": plain(system.log.episode_rewards),
        "communication_episodes": list(system.log.communication_episodes),
        "events": plain(system.log.events),
        "weights": [plain(fed.agent.state_dict()) for fed in system.agents],
        "agent_streams": [fed.agent.rng.bit_generator.state for fed in system.agents],
        "consensus": None if consensus is None else plain(consensus),
        "callbacks": [_callback_record(callback) for callback in callbacks],
    }
