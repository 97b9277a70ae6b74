"""The ring-array replay buffer against the deque buffer it replaced.

``DequeReplayBuffer`` keeps the replaced buffer: a deque of ``Transition``
objects stacked with ``np.stack`` on every sample.  From the same adds and
the same stream, the ring must return arrays of the same bytes, dtype and
shape and leave the stream in the same state, also after the ring wraps and
after ``clear``.  A Q-learning agent trained on the ring buffer and the flat
Adam must end with the parameters and stream of an agent trained on the two
replaced classes (``PerParameterAdam`` keeps Adam's per-parameter loop).
"""

from collections import deque

import numpy as np
import pytest

from repro.envs import GridWorldEnv
from repro.envs.gridworld import generate_layout
from repro.rl import QLearningAgent, QLearningConfig, ReplayBuffer, Transition


class DequeReplayBuffer:
    def __init__(self, capacity, rng):
        self.capacity = capacity
        self._buffer = deque(maxlen=capacity)
        self._rng = rng

    def add(self, observation, action, reward, next_observation, done):
        self._buffer.append(Transition(np.asarray(observation), int(action), float(reward),
                                       np.asarray(next_observation), bool(done)))

    def __len__(self):
        return len(self._buffer)

    def sample(self, batch_size):
        indices = self._rng.choice(len(self._buffer), size=batch_size, replace=False)
        return [self._buffer[int(index)] for index in indices]

    def sample_arrays(self, batch_size):
        batch = self.sample(batch_size)
        observations = np.stack([t.observation for t in batch])
        actions = np.asarray([t.action for t in batch], dtype=np.int64)
        rewards = np.asarray([t.reward for t in batch], dtype=np.float64)
        next_observations = np.stack([t.next_observation for t in batch])
        dones = np.asarray([t.done for t in batch], dtype=bool)
        return observations, actions, rewards, next_observations, dones

    def clear(self):
        self._buffer.clear()


class PerParameterAdam:
    def __init__(self, parameters, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.parameters = list(parameters)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step_count = 0
        self._first_moment = {id(p): np.zeros_like(p.value) for p in self.parameters}
        self._second_moment = {id(p): np.zeros_like(p.value) for p in self.parameters}

    def step(self):
        self._step_count += 1
        bias_correction1 = 1.0 - self.beta1**self._step_count
        bias_correction2 = 1.0 - self.beta2**self._step_count
        for parameter in self.parameters:
            grad = parameter.grad
            first = self._first_moment[id(parameter)]
            second = self._second_moment[id(parameter)]
            first *= self.beta1
            first += (1.0 - self.beta1) * grad
            second *= self.beta2
            second += (1.0 - self.beta2) * grad**2
            corrected_first = first / bias_correction1
            corrected_second = second / bias_correction2
            parameter.value -= (
                self.learning_rate * corrected_first / (np.sqrt(corrected_second) + self.epsilon)
            )


def transitions(rng, count, shape, dtype):
    """Transitions whose fields arrive as the callers pass them: mixed scalar types."""
    for index in range(count):
        if np.issubdtype(dtype, np.integer):
            observation = rng.integers(-100, 100, size=shape)
        else:
            observation = rng.standard_normal(shape) * 1e3
            if index % 7 == 0:
                observation.flat[0] = -0.0
                observation.flat[-1] = np.nan
        action = int(rng.integers(0, 4)) if index % 2 else np.int64(rng.integers(0, 4))
        reward = float(rng.standard_normal()) if index % 3 else np.float32(rng.standard_normal())
        done = bool(index % 5 == 0) if index % 2 else np.bool_(index % 4 == 0)
        yield (observation.astype(dtype), action, reward,
               (observation + 1).astype(dtype), done)


def assert_same_arrays(ring_arrays, reference_arrays):
    for ring, reference in zip(ring_arrays, reference_arrays, strict=True):
        assert ring.dtype == reference.dtype
        assert ring.shape == reference.shape
        assert ring.flags.c_contiguous == reference.flags.c_contiguous
        assert ring.tobytes() == reference.tobytes()


def assert_same_stream(ring, reference):
    assert ring._rng.bit_generator.state == reference._rng.bit_generator.state


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int8])
@pytest.mark.parametrize("capacity", [1, 5, 16, 37])
def test_sample_arrays_match_the_deque_while_the_ring_wraps(capacity, dtype):
    ring = ReplayBuffer(capacity, rng=np.random.default_rng(5))
    reference = DequeReplayBuffer(capacity, rng=np.random.default_rng(5))
    rng = np.random.default_rng(3)
    for index, fields in enumerate(transitions(rng, 200, (6,), dtype)):
        ring.add(*fields)
        reference.add(*fields)
        assert len(ring) == len(reference)
        batch_size = min(len(reference), 1 + index % 16)
        assert_same_arrays(ring.sample_arrays(batch_size), reference.sample_arrays(batch_size))
        assert_same_stream(ring, reference)


def test_clear_then_reuse_with_other_shapes():
    ring = ReplayBuffer(7, rng=np.random.default_rng(8))
    reference = DequeReplayBuffer(7, rng=np.random.default_rng(8))
    rng = np.random.default_rng(4)
    for shape, dtype, count in (((4,), np.float64, 20), ((2, 3), np.int64, 12), ((4,), np.float64, 3)):
        ring.clear()
        reference.clear()
        assert len(ring) == 0
        for fields in transitions(rng, count, shape, dtype):
            ring.add(*fields)
            reference.add(*fields)
            batch_size = min(len(reference), 3)
            assert_same_arrays(ring.sample_arrays(batch_size), reference.sample_arrays(batch_size))
        assert_same_stream(ring, reference)


def test_sample_builds_the_deque_transitions():
    ring = ReplayBuffer(6, rng=np.random.default_rng(2))
    reference = DequeReplayBuffer(6, rng=np.random.default_rng(2))
    for fields in transitions(np.random.default_rng(1), 15, (3,), np.float64):
        ring.add(*fields)
        reference.add(*fields)
    for _ in range(4):
        for got, expected in zip(ring.sample(4), reference.sample(4), strict=True):
            assert got.observation.tobytes() == expected.observation.tobytes()
            assert got.next_observation.tobytes() == expected.next_observation.tobytes()
            assert (got.action, got.reward, got.done) == (
                expected.action, expected.reward, expected.done)
            assert (type(got.action), type(got.reward), type(got.done)) == (int, float, bool)
    assert_same_stream(ring, reference)


def test_agent_trains_like_the_replaced_classes():
    config = QLearningConfig(hidden_sizes=(16, 16), replay_capacity=150,
                             epsilon_decay_episodes=20)
    agent = QLearningAgent(config, rng=0)
    reference = QLearningAgent(config, rng=0)
    reference.optimizer = PerParameterAdam(reference.network.parameters(), config.learning_rate)
    reference.replay = DequeReplayBuffer(config.replay_capacity, rng=reference._rng)
    steps = 0
    for episode in range(25):
        for trainee in (agent, reference):
            trainee.begin_episode(episode)
        env, reference_env = (GridWorldEnv(generate_layout(seed=11 + episode % 3), max_steps=40)
                              for _ in range(2))
        stats = agent.run_episode(env)
        assert stats == reference.run_episode(reference_env)
        steps += stats.steps
    assert steps > 2 * config.replay_capacity, "the ring should wrap"
    state, expected = agent.state_dict(), reference.state_dict()
    assert list(state) == list(expected)
    for key in expected:
        assert state[key].tobytes() == expected[key].tobytes()
    assert agent._rng.bit_generator.state == reference._rng.bit_generator.state
