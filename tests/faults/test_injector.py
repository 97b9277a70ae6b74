"""Tests for the fault injector."""

import numpy as np

from repro.faults import BitErrorRate, FaultInjector
from repro.nn import build_gridworld_q_network


class TestCorruptArray:
    def test_zero_ber_is_identity(self):
        injector = FaultInjector(rng=0)
        values = np.random.default_rng(0).normal(size=100)
        np.testing.assert_array_equal(injector.corrupt_array(values, 0.0), values)

    def test_does_not_mutate_input(self):
        injector = FaultInjector(rng=0)
        values = np.ones(50)
        injector.corrupt_array(values, 0.5)
        np.testing.assert_array_equal(values, np.ones(50))

    def test_corruption_changes_values(self):
        injector = FaultInjector(rng=0)
        values = np.random.default_rng(1).uniform(-1, 1, size=200)
        corrupted = injector.corrupt_array(values, 0.05)
        assert not np.allclose(corrupted, values)

    def test_higher_ber_more_corruption(self):
        values = np.random.default_rng(2).uniform(-1, 1, size=500)
        low = FaultInjector(rng=0).corrupt_array(values, 0.001)
        high = FaultInjector(rng=0).corrupt_array(values, 0.1)
        assert (high != values).sum() > (low != values).sum()

    def test_history_recorded(self):
        injector = FaultInjector(rng=0)
        injector.corrupt_array(np.ones(10), 0.05)
        assert len(injector.history) == 1
        record = injector.history[0]
        assert record.total_bits == 10 * 8
        assert record.datatype == "int8"

    def test_history_counts_flips(self):
        injector = FaultInjector(rng=0)
        injector.corrupt_array(np.ones(1000), BitErrorRate(0.01))
        assert injector.total_injected_bits() == round(1000 * 8 * 0.01)

    def test_empty_array(self):
        injector = FaultInjector(rng=0)
        out = injector.corrupt_array(np.zeros(0), 0.5)
        assert out.size == 0

    def test_fixed_point_datatype_outliers(self):
        # High-order bit flips in a wide fixed-point format create outliers
        # well beyond the original value range.
        injector = FaultInjector(datatype="Q(1,10,5)", rng=3)
        values = np.random.default_rng(3).uniform(-1, 1, size=500)
        corrupted = injector.corrupt_array(values, 0.02)
        assert np.abs(corrupted).max() > 10.0

    def test_stuck_at_0_only_clears_bits(self):
        injector = FaultInjector(datatype="Q(1,2,5)", model="stuck-at-0", rng=0)
        values = np.full(100, 3.0)  # near the top of the Q(1,2,5) range
        corrupted = injector.corrupt_array(values, 0.2)
        assert (corrupted <= values + 1e-12).all()

    def test_model_override_per_call(self):
        injector = FaultInjector(model="transient", rng=0)
        out = injector.corrupt_array(np.zeros(100), 0.1, model="stuck-at-0")
        np.testing.assert_array_equal(out, np.zeros(100))


class TestCorruptStateDict:
    def test_preserves_shapes_and_keys(self):
        injector = FaultInjector(rng=0)
        network = build_gridworld_q_network(rng=0)
        state = network.state_dict()
        corrupted = injector.corrupt_state_dict(state, 0.01)
        assert set(corrupted) == set(state)
        for name in state:
            assert corrupted[name].shape == state[name].shape

    def test_zero_ber_identity(self):
        injector = FaultInjector(rng=0)
        state = {"w": np.random.default_rng(0).normal(size=(5, 5))}
        corrupted = injector.corrupt_state_dict(state, 0.0)
        np.testing.assert_array_equal(corrupted["w"], state["w"])

    def test_empty_state(self):
        assert FaultInjector(rng=0).corrupt_state_dict({}, 0.5) == {}

    def test_treats_parameters_as_one_memory(self):
        injector = FaultInjector(rng=0)
        state = {"a": np.zeros(10), "b": np.zeros(10)}
        injector.corrupt_state_dict(state, 0.05)
        assert injector.history[-1].total_bits == 20 * 8
