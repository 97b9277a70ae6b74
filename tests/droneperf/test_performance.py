"""Tests for the drone performance / overhead model."""

import pytest

from repro.droneperf import (
    AIRSIM_DRONE,
    DJI_SPARK,
    DronePlatform,
    estimate_flight,
    evaluate_protection_overheads,
)
from repro.mitigation import PROTECTION_SCHEMES


class TestPlatforms:
    def test_paper_parameters(self):
        # Values from the paper's Fig. 9 platform table.
        assert AIRSIM_DRONE.mass_g == 1652.0
        assert AIRSIM_DRONE.battery_capacity_mah == 6250.0
        assert DJI_SPARK.mass_g == 300.0
        assert DJI_SPARK.battery_capacity_mah == 1480.0

    def test_battery_energy(self):
        assert DJI_SPARK.battery_energy_wh == pytest.approx(1.48 * 11.4)

    def test_hover_power_increases_with_mass(self):
        assert AIRSIM_DRONE.hover_power_w(2000) > AIRSIM_DRONE.hover_power_w(1652)

    def test_hover_power_invalid_mass(self):
        with pytest.raises(ValueError):
            AIRSIM_DRONE.hover_power_w(0)

    def test_invalid_platform(self):
        with pytest.raises(ValueError):
            DronePlatform("x", "t", 100, -1, 1000, 11, 10, 1, 5, 100)

    def test_realistic_flight_times(self):
        for platform in (AIRSIM_DRONE, DJI_SPARK):
            estimate = estimate_flight(platform, PROTECTION_SCHEMES["baseline"])
            assert 8 * 60 < estimate.flight_time_s < 40 * 60


class TestEstimateFlight:
    def test_redundancy_increases_power_and_mass(self):
        baseline = estimate_flight(DJI_SPARK, PROTECTION_SCHEMES["baseline"])
        tmr = estimate_flight(DJI_SPARK, PROTECTION_SCHEMES["tmr"])
        assert tmr.total_mass_g > baseline.total_mass_g
        assert tmr.total_power_w > baseline.total_power_w
        assert tmr.flight_time_s < baseline.flight_time_s
        assert tmr.flight_distance_m < baseline.flight_distance_m

    def test_detection_overhead_small(self):
        baseline = estimate_flight(AIRSIM_DRONE, PROTECTION_SCHEMES["baseline"])
        detection = estimate_flight(AIRSIM_DRONE, PROTECTION_SCHEMES["detection"])
        degradation = 1.0 - detection.flight_distance_m / baseline.flight_distance_m
        assert degradation < 0.03  # the paper's <2.7 % overhead claim

    def test_invalid_energy_fraction(self):
        with pytest.raises(ValueError):
            estimate_flight(AIRSIM_DRONE, PROTECTION_SCHEMES["baseline"], mission_energy_fraction=0.0)

    def test_as_dict_keys(self):
        estimate = estimate_flight(AIRSIM_DRONE, PROTECTION_SCHEMES["dmr"])
        assert {"platform", "scheme", "flight_distance_m"} <= set(estimate.as_dict())


def _tmr_loss(result):
    """Fraction of the detection scheme's flight distance that TMR gives up."""
    distance = {name: est.flight_distance_m for name, est in result.estimates.items()}
    return 1.0 - distance["tmr"] / distance["detection"]


class TestProtectionComparison:
    def test_ordering_matches_paper(self):
        # detection barely hurts; DMR hurts more; TMR hurts most.
        for platform in (AIRSIM_DRONE, DJI_SPARK):
            result = evaluate_protection_overheads(platform)
            distances = {name: est.flight_distance_m for name, est in result.estimates.items()}
            assert distances["detection"] > distances["dmr"] > distances["tmr"]

    def test_micro_uav_hit_harder_than_mini_uav(self):
        # The paper's asymmetry: TMR is far more damaging on the DJI Spark.
        airsim = evaluate_protection_overheads(AIRSIM_DRONE)
        spark = evaluate_protection_overheads(DJI_SPARK)
        assert _tmr_loss(spark) > _tmr_loss(airsim)

    def test_spark_tmr_degradation_large(self):
        spark = evaluate_protection_overheads(DJI_SPARK)
        assert _tmr_loss(spark) > 0.5

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            evaluate_protection_overheads(AIRSIM_DRONE, schemes=["baseline", "ecc"])
