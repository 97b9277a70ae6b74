"""Tests for the per-figure plan builders (tiny scales, serial runs)."""

import numpy as np
import pytest

from repro.core.config import DroneScale, GridWorldScale
from repro.core.experiments.drone_inference import datatype_study_plan
from repro.core.experiments.drone_training import (
    communication_interval_plan,
    drone_count_plan,
    drone_training_plan,
)
from repro.core.experiments.gridworld_inference import gridworld_inference_plan
from repro.core.experiments.gridworld_training import (
    convergence_plan,
    gridworld_training_plan,
    policy_std_plan,
    weight_bits_cell,
    weight_distribution_plan,
)
from repro.core.experiments.inference_utils import (
    drone_agent_with_state,
    flight_distance_over_envs,
)
from repro.core.experiments.mitigation_experiments import (
    inference_mitigation_plan,
    training_mitigation_plan,
)
from repro.core.experiments.overhead import overhead_plan
from repro.core.pretrained import PolicyCache
from repro.quant.datatypes import resolve_datatype

#: Fig. 3d's bit statistics: case -> (weights, datatype, check(min, max,
#: zero-bit fraction, value count)); ``None`` weights mean an empty policy.
_WEIGHT_BITS_CASES = {
    "fractions-in-unit-interval": (
        np.random.default_rng(0).normal(0, 0.3, size=(20, 20)),
        "int8",
        lambda low, high, zeros, count: count == 400 and 0.0 < zeros < 1.0,
    ),
    "zero-weights-are-all-zero-bits": (
        np.zeros(100),
        "Q(1,2,5)",
        lambda low, high, zeros, count: zeros == 1.0,
    ),
    # The paper's observation: a narrow-range policy stored in a format with
    # range headroom holds far more 0 bits than 1 bits.  With two's-complement
    # storage the effect is strongest for positive values (negative values
    # sign-extend).
    "positive-narrow-policy-mostly-zero-bits": (
        np.random.default_rng(0).uniform(0.0, 0.3, size=1000),
        "Q(1,4,11)",
        lambda low, high, zeros, count: zeros > 0.65,
    ),
    # Zero-centered weights still keep the high-order magnitude bits clear.
    "zero-centered-policy-at-least-half-zero-bits": (
        np.random.default_rng(0).uniform(-0.3, 0.3, size=1000),
        "Q(1,4,11)",
        lambda low, high, zeros, count: zeros >= 0.45,
    ),
    "value-count": (
        np.zeros(10),
        "int8",
        lambda low, high, zeros, count: count == 10,
    ),
    "min-max-recorded": (
        np.array([-1.0, 2.0]),
        "Q(1,4,11)",
        lambda low, high, zeros, count: (low, high) == (-1.0, 2.0),
    ),
    "empty-policy-rejected": (None, "int8", None),
}


@pytest.fixture(scope="module")
def gw_scale():
    return GridWorldScale.tiny()


@pytest.fixture(scope="module")
def drone_scale():
    return DroneScale.tiny()


class TestGridworldTraining:
    def test_training_heatmap_shape_and_baseline(self, gw_scale):
        result = gridworld_training_plan(
            "server", scale=gw_scale, ber_values=(0.0, 0.02), episode_fractions=(0.8,)
        ).run_serial()
        assert result.values.shape == (2, 1)
        assert 0.0 <= result.values.min() and result.values.max() <= 100.0
        assert result.metadata["location"] == "server"

    def test_training_heatmap_invalid_location(self, gw_scale):
        with pytest.raises(ValueError):
            gridworld_training_plan("antenna", scale=gw_scale)

    def test_policy_std_rows(self, gw_scale):
        result = policy_std_plan(scale=gw_scale, agent_counts=(1, 2)).run_serial()
        assert len(result.rows) == 2
        stds = result.column("policy std")
        assert all(0.0 <= value <= 0.5 for value in stds)

    def test_policy_std_rejects_bad_count(self, gw_scale):
        with pytest.raises(ValueError):
            policy_std_plan(scale=gw_scale, agent_counts=(0,))

    @pytest.mark.parametrize("case", sorted(_WEIGHT_BITS_CASES))
    def test_weight_bits_cell(self, case):
        weights, datatype, check = _WEIGHT_BITS_CASES[case]
        if weights is None:
            with pytest.raises(ValueError):
                weight_bits_cell({}, None, datatype)
            return
        minimum, maximum, one_bits, count = weight_bits_cell({"w": weights}, None, datatype)
        zeros = 1.0 - one_bits / (count * resolve_datatype(datatype).bit_width)
        assert check(minimum, maximum, zeros, count)

    def test_weight_distribution_table(self, gw_scale, policy_cache):
        result = weight_distribution_plan(scale=gw_scale, cache=policy_cache).run_serial()
        as_map = {row[0]: row[1] for row in result.rows}
        assert as_map["0 bits (%)"] + as_map["1 bits (%)"] == pytest.approx(100.0)
        assert as_map["min weight"] < as_map["max weight"]

    def test_convergence_series(self, gw_scale):
        result = convergence_plan(
            scale=gw_scale, ber_values=(0.01,), evaluation_interval=10,
            max_extra_episodes=20, recovery_success_rate=0.5,
        ).run_serial()
        assert set(result.series) == {"agent", "server"}
        assert all(value >= gw_scale.episodes for value in result.series["agent"])


class TestGridworldInference:
    def test_inference_sweep_series(self, gw_scale, policy_cache):
        result = gridworld_inference_plan(
            scale=gw_scale, ber_values=(0.0, 0.02), cache=policy_cache, repeats=1,
            variants=("Multi-Trans-M", "Multi-Trans-1"),
        ).run_serial()
        assert set(result.series) == {"Multi-Trans-M", "Multi-Trans-1"}
        assert all(len(v) == 2 for v in result.series.values())

    def test_inference_cells_build_no_agent(self, gw_scale, policy_cache, monkeypatch):
        plans = [
            gridworld_inference_plan(
                scale=gw_scale, ber_values=(0.0, 0.02), cache=policy_cache, repeats=1
            ),
            inference_mitigation_plan(
                "gridworld", scale=gw_scale, ber_values=(0.02,), cache=policy_cache, repeats=1
            ),
        ]

        def refuse(*_args, **_kwargs):
            raise AssertionError("an inference cell built a QLearningAgent")

        monkeypatch.setattr("repro.rl.qlearning.QLearningAgent.__init__", refuse)
        for plan in plans:
            plan.run_serial()

    @pytest.mark.parametrize("variants", [("Quad-Trans",), ("Multi-Trans-M", "Quad-Trans")])
    def test_inference_sweep_unknown_variant(self, gw_scale, tmp_path, variants):
        # Refused before the baselines are trained or loaded through the cache.
        with pytest.raises(ValueError, match="'Quad-Trans'"):
            gridworld_inference_plan(
                scale=gw_scale, ber_values=(0.0,), cache=PolicyCache(tmp_path), repeats=1,
                variants=variants,
            )
        assert list(tmp_path.iterdir()) == []


class TestDroneExperiments:
    def test_drone_training_shape(self, drone_scale, policy_cache):
        result = drone_training_plan(
            "server", scale=drone_scale, ber_values=(0.0, 1e-1), episode_fractions=(0.5,),
            cache=policy_cache,
        ).run_serial()
        assert result.values.shape == (2, 1)
        assert (result.values >= 0.0).all()

    def test_drone_count_series(self, drone_scale, policy_cache):
        result = drone_count_plan(
            scale=drone_scale, drone_counts=(2,), ber_values=(0.0, 1e-1), cache=policy_cache
        ).run_serial()
        assert "(2,server)" in result.series and "(2,agent)" in result.series

    def test_communication_interval_series(self, drone_scale, policy_cache):
        result = communication_interval_plan(
            scale=drone_scale, interval_multipliers=(1, 2), cache=policy_cache
        ).run_serial()
        assert set(result.series) == {"no_fault", "agent_fault", "server_fault",
                                      "communication_rounds"}
        rounds = result.series["communication_rounds"]
        assert rounds[0] >= rounds[1]

    def test_datatype_series(self, drone_scale, policy_cache):
        result = datatype_study_plan(
            scale=drone_scale, ber_values=(0.0, 1e-2), cache=policy_cache, repeats=1
        ).run_serial()
        assert set(result.series) == {"Q(1,4,11)", "Q(1,7,8)", "Q(1,10,5)"}

    def test_flight_distance_without_envs_raises_before_drawing(
        self, drone_scale, tiny_drone_policy
    ):
        agent = drone_agent_with_state(drone_scale, tiny_drone_policy["policy"], rng=7)
        before = agent.rng.bit_generator.state
        with pytest.raises(ValueError):
            flight_distance_over_envs(agent, [])
        assert agent.rng.bit_generator.state == before


class TestMitigationExperiments:
    def test_training_mitigation_gridworld(self, gw_scale, policy_cache):
        result = training_mitigation_plan(
            "gridworld", "server", scale=gw_scale, ber_values=(0.0, 0.02),
            episode_fractions=(0.8,), cache=policy_cache,
        ).run_serial()
        assert result.values.shape == (2, 1)
        assert result.metadata["checkpoint_interval"] == 5

    def test_training_mitigation_invalid_workload(self):
        with pytest.raises(ValueError):
            training_mitigation_plan("cartpole", "server")

    def test_inference_mitigation_gridworld(self, gw_scale, policy_cache):
        result = inference_mitigation_plan(
            "gridworld", scale=gw_scale, ber_values=(0.0, 0.02), cache=policy_cache, repeats=1
        ).run_serial()
        assert set(result.series) == {"no_mitigation", "mitigation"}
        assert result.metadata["max_improvement_factor"] is not None

    def test_inference_mitigation_drone(self, drone_scale, policy_cache):
        result = inference_mitigation_plan(
            "drone", scale=drone_scale, ber_values=(0.0, 1e-2), cache=policy_cache, repeats=1
        ).run_serial()
        assert len(result.series["mitigation"]) == 2


class TestOverhead:
    def test_table_rows(self):
        result = overhead_plan().run_serial()
        assert len(result.rows) == 8  # 2 platforms x 4 schemes
        platforms = {row[0] for row in result.rows}
        assert platforms == {"AirSim drone", "DJI Spark"}

    def test_detection_cheaper_than_tmr(self):
        result = overhead_plan().run_serial()
        loss = {(row[0], row[1]): row[5] for row in result.rows}
        assert loss[("DJI Spark", "tmr")] > loss[("DJI Spark", "detection")]
        assert loss[("AirSim drone", "tmr")] > 0.0
