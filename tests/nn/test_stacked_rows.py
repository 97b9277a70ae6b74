"""Row-exact stacked forwards of the GridWorld Q-network.

Greedy action tables evaluate the observations of a layout in one forward
stacked as ``(rows, 1, features)``.  Each row's Q-values must carry the
bytes of a one-row forward, for fault-corrupted weights and for inputs and
weights holding NaN of both signs, infinities and signed zeros.  The tables
compute that forward from the state dict alone
(``nn.network.gridworld_q_values``), which must give the network's bytes on
a stack and on a batch alike.
"""

import numpy as np
import pytest

from repro.envs.gridworld import enumerate_observations
from repro.faults import FaultInjector
from repro.nn import Linear, build_gridworld_q_network
from repro.nn.network import gridworld_q_values

HIDDEN_SIZES = ((16, 16), (24, 24), (32, 32))
SPECIALS = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -5e-324])


def _corrupted_network(hidden_sizes, seed, ber):
    network = build_gridworld_q_network(observation_size=6, hidden_sizes=hidden_sizes, rng=seed)
    injector = FaultInjector(datatype="Q(1,2,5)", model="transient", rng=seed)
    network.load_state_dict(injector.corrupt_state_dict(network.state_dict(), ber))
    return network


def _plant_specials(network, seed):
    """Overwrite a few entries of every parameter with non-finite and signed-zero values."""
    rng = np.random.default_rng(seed)
    state = network.state_dict()
    for value in state.values():
        flat = value.reshape(-1)
        positions = rng.choice(flat.size, size=min(flat.size, 6), replace=False)
        flat[positions] = rng.choice(SPECIALS, size=positions.size)
    network.load_state_dict(state)


def _inputs(seed):
    rng = np.random.default_rng(seed)
    observations = enumerate_observations(6)
    odd = rng.choice(np.concatenate([SPECIALS, [-1.0, 1.0, 0.5]]), size=(40, 6))
    return np.concatenate([observations, odd])


def _assert_row_exact(network, inputs):
    stacked = network.forward(inputs.reshape(len(inputs), 1, inputs.shape[1]))
    assert stacked.shape == (len(inputs), 1, 4)
    for row in range(len(inputs)):
        assert stacked[row, 0].tobytes() == network.forward(inputs[row : row + 1])[0].tobytes()


@pytest.mark.parametrize("hidden_sizes", HIDDEN_SIZES)
def test_float_weights_row_exact(hidden_sizes):
    # Unquantized weights round in every sum, so a (rows, F) batch would
    # move most rows' bytes here; the stack must move none.
    network = build_gridworld_q_network(observation_size=6, hidden_sizes=hidden_sizes, rng=2)
    inputs = np.concatenate([_inputs(2)[:81], np.random.default_rng(2).normal(size=(40, 6))])
    _assert_row_exact(network, inputs)


@pytest.mark.parametrize("hidden_sizes", HIDDEN_SIZES)
@pytest.mark.parametrize("ber", [0.05, 0.3])
def test_corrupted_weights_row_exact(hidden_sizes, ber):
    with np.errstate(all="ignore"):
        _assert_row_exact(_corrupted_network(hidden_sizes, 3, ber), _inputs(0))


@pytest.mark.parametrize("hidden_sizes", HIDDEN_SIZES)
def test_special_values_row_exact(hidden_sizes):
    network = _corrupted_network(hidden_sizes, 5, 0.1)
    _plant_specials(network, 5)
    with np.errstate(all="ignore"):
        outputs = network.forward(_inputs(1))
        assert np.isnan(outputs).any() and np.isinf(_inputs(1)).any()
        _assert_row_exact(network, _inputs(1))


@pytest.mark.parametrize("hidden_sizes", HIDDEN_SIZES)
def test_state_forward_matches_the_network(hidden_sizes):
    plain = build_gridworld_q_network(observation_size=6, hidden_sizes=hidden_sizes, rng=2)
    special = _corrupted_network(hidden_sizes, 5, 0.1)
    _plant_specials(special, 5)
    # One infinite input per row: -inf pre-activations reach the ReLU mask.
    one_hot = np.where(np.eye(6, dtype=bool), -np.inf, 0.0)
    inputs = np.concatenate([_inputs(1), one_hot, -one_hot])
    with np.errstate(all="ignore"):
        for network in (plain, _corrupted_network(hidden_sizes, 3, 0.3), special):
            state = network.state_dict()
            for rows in (inputs, inputs[:, None, :], inputs[:1]):
                expected = network.forward(rows).tobytes()
                assert gridworld_q_values(state, rows).tobytes() == expected


def test_state_forward_refuses_a_state_without_layers():
    for state in ({}, {"weights": np.zeros((2, 2))}):
        with pytest.raises(ValueError, match="no Q-network layers"):
            gridworld_q_values(state, np.zeros((1, 2)))


def test_negative_nan_keeps_its_sign_bit():
    # Guards the fixture: -np.nan must really set the sign bit.
    assert np.signbit(SPECIALS[1]) and np.isnan(SPECIALS[1])


class TestStackedLinear:
    def test_accepts_a_stack_and_checks_the_last_axis(self):
        layer = Linear(3, 2, rng=0)
        assert layer.forward(np.ones((5, 1, 3))).shape == (5, 1, 2)
        with pytest.raises(ValueError, match="3 features"):
            layer.forward(np.ones((5, 3, 1)))

    def test_backward_after_a_stacked_forward_raises(self):
        layer = Linear(3, 2, rng=0)
        layer.forward(np.ones((5, 1, 3)))
        with pytest.raises(RuntimeError, match="stacked forward"):
            layer.backward(np.ones((5, 1, 2)))
