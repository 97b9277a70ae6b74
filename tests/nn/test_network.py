"""Tests for policy network factories and state-dict helpers."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    build_drone_policy_network,
    build_gridworld_q_network,
    clone_state_dict,
)


class TestGridworldNetwork:
    def test_output_shape(self):
        net = build_gridworld_q_network(observation_size=6, action_count=4, rng=0)
        assert net.forward(np.zeros((3, 6))).shape == (3, 4)

    def test_deterministic_construction(self):
        a = build_gridworld_q_network(rng=7).state_dict()
        b = build_gridworld_q_network(rng=7).state_dict()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        a = build_gridworld_q_network(rng=0).state_dict()
        b = build_gridworld_q_network(rng=1).state_dict()
        assert any(not np.array_equal(a[name], b[name]) for name in a)

    def test_custom_hidden_sizes(self):
        net = build_gridworld_q_network(hidden_sizes=(8,), rng=0)
        assert sum(p.size for p in net.parameters()) == 4 * 8 + 8 + 8 * 4 + 4

    def test_trains_on_regression(self):
        net = build_gridworld_q_network(observation_size=4, hidden_sizes=(16,), rng=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 4))
        y = np.tile(np.sin(x.sum(axis=1, keepdims=True)), (1, 4))
        optimizer = Adam(net.parameters(), 0.01)
        first_loss = None
        for _ in range(200):
            out = net.forward(x)
            loss, grad = np.mean((out - y) ** 2), 2.0 * (out - y) / out.size
            if first_loss is None:
                first_loss = loss
            net.zero_grad()
            net.backward(grad)
            optimizer.step()
        assert loss < first_loss * 0.1


class TestDronePolicyNetwork:
    def test_output_is_probability_distribution(self):
        net = build_drone_policy_network(input_shape=(3, 8, 8), conv_channels=(4, 4, 4),
                                         fc_hidden=16, rng=0)
        probs = net.forward(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
        assert probs.shape == (2, 25)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(2))
        assert (probs >= 0).all()

    def test_too_small_input_rejected(self):
        with pytest.raises(ValueError):
            build_drone_policy_network(input_shape=(3, 4, 4), conv_channels=(4, 4, 4), rng=0)

    def test_custom_action_count(self):
        net = build_drone_policy_network(input_shape=(3, 8, 8), conv_channels=(2, 2, 2),
                                         fc_hidden=8, action_count=10, rng=0)
        assert net.forward(np.zeros((1, 3, 8, 8))).shape == (1, 10)


class TestStateDictHelpers:
    def test_clone_is_deep(self):
        net = build_gridworld_q_network(rng=0)
        state = net.state_dict()
        cloned = clone_state_dict(state)
        cloned[next(iter(cloned))][0] = 99.0
        assert not np.array_equal(cloned[next(iter(state))], state[next(iter(state))])
