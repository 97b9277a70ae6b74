"""Tests for exploration schedules and the replay buffer."""

import numpy as np
import pytest

from repro.rl import LinearEpsilonDecay, ReplayBuffer, Transition


class TestSchedules:
    def test_linear_decay_endpoints(self):
        schedule = LinearEpsilonDecay(start=1.0, end=0.1, decay_episodes=100)
        assert schedule(0) == pytest.approx(1.0)
        assert schedule(100) == pytest.approx(0.1)
        assert schedule(500) == pytest.approx(0.1)

    def test_linear_decay_midpoint(self):
        schedule = LinearEpsilonDecay(start=1.0, end=0.0, decay_episodes=10)
        assert schedule(5) == pytest.approx(0.5)

    def test_linear_decay_monotone(self):
        schedule = LinearEpsilonDecay(start=0.9, end=0.05, decay_episodes=50)
        values = [schedule(e) for e in range(60)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_linear_invalid(self):
        with pytest.raises(ValueError):
            LinearEpsilonDecay(start=0.1, end=0.5)
        with pytest.raises(ValueError):
            LinearEpsilonDecay(decay_episodes=0)
        with pytest.raises(ValueError):
            LinearEpsilonDecay()(-1)


class TestReplayBuffer:
    def make_buffer(self, capacity=50):
        return ReplayBuffer(capacity=capacity, rng=0)

    def test_push_and_len(self):
        buffer = self.make_buffer()
        buffer.add(np.zeros(4), 1, 0.5, np.ones(4), False)
        assert len(buffer) == 1

    def test_capacity_eviction(self):
        buffer = self.make_buffer(capacity=5)
        for index in range(10):
            buffer.add(np.full(2, index), 0, 0.0, np.zeros(2), False)
        assert len(buffer) == 5
        observations, *_ = buffer.sample_arrays(5)
        assert observations.min() >= 5  # the oldest transitions were evicted

    def test_sample_size_validation(self):
        buffer = self.make_buffer()
        buffer.add(np.zeros(2), 0, 0.0, np.zeros(2), False)
        with pytest.raises(ValueError):
            buffer.sample(2)
        with pytest.raises(ValueError):
            buffer.sample(0)

    def test_sample_arrays_shapes(self):
        buffer = self.make_buffer()
        for index in range(20):
            buffer.add(np.full(3, index), index % 4, float(index), np.full(3, index + 1), index % 2 == 0)
        observations, actions, rewards, next_observations, dones = buffer.sample_arrays(8)
        assert observations.shape == (8, 3)
        assert actions.dtype == np.int64
        assert rewards.shape == (8,)
        assert next_observations.shape == (8, 3)
        assert dones.dtype == bool

    def test_clear(self):
        buffer = self.make_buffer()
        buffer.add(np.zeros(2), 0, 0.0, np.zeros(2), True)
        buffer.clear()
        assert len(buffer) == 0

    @pytest.mark.parametrize("observation", [np.float64(5.0), np.zeros(1), np.zeros((4, 1))],
                             ids=["scalar", "length-1", "column"])
    def test_add_rejects_an_observation_of_another_shape(self, observation):
        buffer = self.make_buffer()
        buffer.add(np.zeros(4), 0, 0.0, np.zeros(4), False)
        with pytest.raises(ValueError, match="^observation of shape"):
            buffer.add(observation, 0, 0.0, np.zeros(4), False)
        with pytest.raises(ValueError, match="^next_observation of shape"):
            buffer.add(np.zeros(4), 0, 0.0, observation, False)
        assert len(buffer) == 1

    def test_add_rejects_a_float_row_after_an_int_row(self):
        buffer = self.make_buffer()
        buffer.add(np.arange(4), 0, 0.0, np.arange(4), False)
        with pytest.raises(ValueError, match="dtype float64"):
            buffer.add(np.full(4, 0.5), 0, 0.0, np.arange(4), False)
        with pytest.raises(ValueError, match="^next_observation .* dtype float64"):
            buffer.add(np.arange(4), 0, 0.0, np.full(4, 0.5), False)
        observations, *_ = buffer.sample_arrays(1)
        assert observations.dtype == np.arange(4).dtype

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)

    def test_transition_immutable_dataclass(self):
        transition = Transition(np.zeros(2), 1, 0.0, np.zeros(2), False)
        with pytest.raises(AttributeError):
            transition.action = 3
