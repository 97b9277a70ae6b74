"""Tests for the per-figure experiment functions (tiny scales)."""

import pytest

from repro.core import experiments
from repro.core.config import DroneScale, GridWorldScale


@pytest.fixture(scope="module")
def gw_scale():
    return GridWorldScale.tiny()


@pytest.fixture(scope="module")
def drone_scale():
    return DroneScale.tiny()


class TestGridworldTraining:
    def test_training_heatmap_shape_and_baseline(self, gw_scale):
        result = experiments.gridworld_training_heatmap(
            "server", scale=gw_scale, ber_values=(0.0, 0.02), episode_fractions=(0.8,)
        )
        assert result.values.shape == (2, 1)
        assert 0.0 <= result.values.min() and result.values.max() <= 100.0
        assert result.metadata["location"] == "server"

    def test_training_heatmap_invalid_location(self, gw_scale):
        with pytest.raises(ValueError):
            experiments.gridworld_training_heatmap("antenna", scale=gw_scale)

    def test_policy_std_table(self, gw_scale):
        result = experiments.policy_std_table(scale=gw_scale, agent_counts=(1, 2))
        assert len(result.rows) == 2
        stds = result.column("policy std")
        assert all(0.0 <= value <= 0.5 for value in stds)

    def test_policy_std_rejects_bad_count(self, gw_scale):
        with pytest.raises(ValueError):
            experiments.policy_std_table(scale=gw_scale, agent_counts=(0,))

    def test_weight_distribution(self, gw_scale, tiny_gridworld_policies):
        result = experiments.weight_distribution(
            scale=gw_scale, consensus=tiny_gridworld_policies["consensus"]
        )
        as_map = {row[0]: row[1] for row in result.rows}
        assert as_map["0 bits (%)"] + as_map["1 bits (%)"] == pytest.approx(100.0)
        assert as_map["min weight"] < as_map["max weight"]

    def test_convergence_after_fault(self, gw_scale):
        result = experiments.convergence_after_fault(
            scale=gw_scale, ber_values=(0.01,), evaluation_interval=10,
            max_extra_episodes=20, recovery_success_rate=0.5,
        )
        assert set(result.series) == {"agent", "server"}
        assert all(value >= gw_scale.episodes for value in result.series["agent"])


class TestGridworldInference:
    def test_inference_sweep_series(self, gw_scale, policy_cache):
        result = experiments.gridworld_inference_sweep(
            scale=gw_scale, ber_values=(0.0, 0.02), cache=policy_cache, repeats=1,
            variants=("Multi-Trans-M", "Multi-Trans-1"),
        )
        assert set(result.series) == {"Multi-Trans-M", "Multi-Trans-1"}
        assert all(len(v) == 2 for v in result.series.values())

    def test_inference_sweep_unknown_variant(self, gw_scale, policy_cache):
        with pytest.raises(ValueError):
            experiments.gridworld_inference_sweep(
                scale=gw_scale, ber_values=(0.0,), cache=policy_cache, repeats=1,
                variants=("Quad-Trans",),
            )


class TestDroneExperiments:
    def test_drone_training_heatmap(self, drone_scale, policy_cache):
        result = experiments.drone_training_heatmap(
            "server", scale=drone_scale, ber_values=(0.0, 1e-1), episode_fractions=(0.5,),
            cache=policy_cache,
        )
        assert result.values.shape == (2, 1)
        assert (result.values >= 0.0).all()

    def test_drone_count_sweep(self, drone_scale, policy_cache):
        result = experiments.drone_count_sweep(
            scale=drone_scale, drone_counts=(2,), ber_values=(0.0, 1e-1), cache=policy_cache
        )
        assert "(2,server)" in result.series and "(2,agent)" in result.series

    def test_communication_interval_study(self, drone_scale, policy_cache):
        result = experiments.communication_interval_study(
            scale=drone_scale, interval_multipliers=(1, 2), cache=policy_cache
        )
        assert set(result.series) == {"no_fault", "agent_fault", "server_fault",
                                      "communication_rounds"}
        rounds = result.series["communication_rounds"]
        assert rounds[0] >= rounds[1]

    def test_datatype_study(self, drone_scale, policy_cache):
        result = experiments.datatype_study(
            scale=drone_scale, ber_values=(0.0, 1e-2), cache=policy_cache, repeats=1
        )
        assert set(result.series) == {"Q(1,4,11)", "Q(1,7,8)", "Q(1,10,5)"}


class TestMitigationExperiments:
    def test_training_mitigation_heatmap_gridworld(self, gw_scale, policy_cache):
        result = experiments.training_mitigation_heatmap(
            "gridworld", "server", scale=gw_scale, ber_values=(0.0, 0.02),
            episode_fractions=(0.8,), cache=policy_cache,
        )
        assert result.values.shape == (2, 1)
        assert result.metadata["checkpoint_interval"] == 5

    def test_training_mitigation_invalid_workload(self):
        with pytest.raises(ValueError):
            experiments.training_mitigation_heatmap("cartpole", "server")

    def test_inference_mitigation_sweep_gridworld(self, gw_scale, policy_cache):
        result = experiments.inference_mitigation_sweep(
            "gridworld", scale=gw_scale, ber_values=(0.0, 0.02), cache=policy_cache, repeats=1
        )
        assert set(result.series) == {"no_mitigation", "mitigation"}
        assert result.metadata["max_improvement_factor"] is not None

    def test_inference_mitigation_sweep_drone(self, drone_scale, policy_cache):
        result = experiments.inference_mitigation_sweep(
            "drone", scale=drone_scale, ber_values=(0.0, 1e-2), cache=policy_cache, repeats=1
        )
        assert len(result.series["mitigation"]) == 2


class TestOverhead:
    def test_table_rows(self):
        result = experiments.overhead_comparison()
        assert len(result.rows) == 8  # 2 platforms x 4 schemes
        platforms = {row[0] for row in result.rows}
        assert platforms == {"AirSim drone", "DJI Spark"}

    def test_detection_cheaper_than_tmr(self):
        result = experiments.overhead_comparison()
        loss = {(row[0], row[1]): row[5] for row in result.rows}
        assert loss[("DJI Spark", "tmr")] > loss[("DJI Spark", "detection")]
        assert loss[("AirSim drone", "tmr")] > 0.0
