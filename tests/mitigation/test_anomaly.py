"""Tests for range-based anomaly detection."""

import numpy as np
import pytest

from repro.faults import FaultInjector
from repro.mitigation import RangeAnomalyDetector, WeightRange


class TestWeightRange:
    def test_bounds_expand_outward(self):
        weight_range = WeightRange(minimum=-1.0, maximum=2.0, margin=0.1)
        assert weight_range.lower_bound == pytest.approx(-1.1)
        assert weight_range.upper_bound == pytest.approx(2.2)

    def test_positive_minimum_expands_toward_zero(self):
        weight_range = WeightRange(minimum=0.5, maximum=2.0, margin=0.1)
        assert weight_range.lower_bound < 0.5

    def test_zero_bounds(self):
        weight_range = WeightRange(minimum=0.0, maximum=0.0, margin=0.1)
        assert weight_range.lower_bound == -0.1
        assert weight_range.upper_bound == 0.1

    def test_contains(self):
        weight_range = WeightRange(minimum=-1.0, maximum=1.0, margin=0.1)
        mask = weight_range.contains(np.array([-1.05, 0.0, 1.2]))
        assert mask.tolist() == [True, True, False]


def _anomalies(detector, state):
    """Total number of values ``detector`` flags as out of range in ``state``."""
    return sum(int(mask.sum()) for mask in detector.detect(state).values())


class TestRangeAnomalyDetector:
    def make_state(self, seed=0):
        rng = np.random.default_rng(seed)
        return {"layer1.weight": rng.uniform(-1.0, 1.0, size=(20, 20)),
                "layer2.weight": rng.uniform(-0.5, 0.5, size=(20, 4))}

    def test_requires_calibration(self):
        detector = RangeAnomalyDetector()
        with pytest.raises(RuntimeError):
            detector.detect(self.make_state())

    def test_clean_state_has_no_anomalies(self):
        state = self.make_state()
        detector = RangeAnomalyDetector()
        detector.calibrate(state)
        assert _anomalies(detector, state) == 0

    def test_clean_state_repair_is_identity(self):
        state = self.make_state()
        detector = RangeAnomalyDetector()
        detector.calibrate(state)
        repaired, count = detector.repair(state)
        assert count == 0
        for name in state:
            np.testing.assert_array_equal(repaired[name], state[name])

    def test_outliers_detected_and_zeroed(self):
        state = self.make_state()
        detector = RangeAnomalyDetector()
        detector.calibrate(state)
        corrupted = {name: value.copy() for name, value in state.items()}
        corrupted["layer1.weight"][0, 0] = 50.0
        corrupted["layer2.weight"][3, 1] = -40.0
        assert _anomalies(detector, corrupted) == 2
        repaired, count = detector.repair(corrupted)
        assert count == 2
        assert repaired["layer1.weight"][0, 0] == 0.0
        assert repaired["layer2.weight"][3, 1] == 0.0

    def test_repair_does_not_touch_in_range_values(self):
        state = self.make_state()
        detector = RangeAnomalyDetector()
        detector.calibrate(state)
        corrupted = {name: value.copy() for name, value in state.items()}
        corrupted["layer1.weight"][0, 0] = 99.0
        repaired, _ = detector.repair(corrupted)
        np.testing.assert_array_equal(repaired["layer2.weight"], corrupted["layer2.weight"])

    def test_margin_tolerates_borderline_values(self):
        state = {"w": np.array([-1.0, 1.0])}
        detector = RangeAnomalyDetector(margin=0.2)
        detector.calibrate(state)
        assert _anomalies(detector, {"w": np.array([1.15, -1.15])}) == 0

    def test_unknown_layer_rejected(self):
        detector = RangeAnomalyDetector()
        detector.calibrate({"a": np.zeros(3)})
        with pytest.raises(KeyError):
            detector.detect({"b": np.zeros(3)})

    def test_calibrate_empty_rejected(self):
        with pytest.raises(ValueError):
            RangeAnomalyDetector().calibrate({})

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            RangeAnomalyDetector(margin=-0.1)

    def test_catches_fixed_point_fault_outliers(self):
        # End-to-end: corrupt a policy stored in a wide fixed-point format and
        # verify the detector repairs most of the induced large outliers.
        state = self.make_state(seed=3)
        detector = RangeAnomalyDetector()
        detector.calibrate(state)
        injector = FaultInjector(datatype="Q(1,10,5)", rng=0)
        corrupted = injector.corrupt_state_dict(state, 0.02)
        repaired, count = detector.repair(corrupted)
        assert count > 0
        max_clean = max(np.abs(v).max() for v in state.values())
        assert max(np.abs(v).max() for v in repaired.values()) <= max_clean * 1.1 + 1e-9

    def test_ranges_property(self):
        state = self.make_state()
        detector = RangeAnomalyDetector()
        detector.calibrate(state)
        assert set(detector.ranges) == set(state)
