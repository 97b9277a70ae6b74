"""Tests for bit-level policy statistics (Fig. 3d machinery)."""

import numpy as np
import pytest

from repro.quant import bit_breakdown


class TestBitBreakdown:
    def test_fractions_sum_to_one(self):
        state = {"w": np.random.default_rng(0).normal(0, 0.3, size=(20, 20))}
        breakdown = bit_breakdown(state, datatype="int8")
        assert breakdown.zero_bit_fraction + breakdown.one_bit_fraction == pytest.approx(1.0)

    def test_zero_weights_are_all_zero_bits(self):
        breakdown = bit_breakdown({"w": np.zeros(100)}, datatype="Q(1,2,5)")
        assert breakdown.one_bit_fraction == 0.0
        assert breakdown.zero_bit_fraction == 1.0

    def test_positive_narrow_policy_mostly_zero_bits(self):
        # The paper's Fig. 3d observation: a narrow-range policy stored in a
        # format with range headroom contains far more 0 bits than 1 bits.
        # With two's-complement storage the effect is strongest for the
        # positive part of the distribution (negative values sign-extend).
        state = {"w": np.random.default_rng(0).uniform(0.0, 0.3, size=1000)}
        breakdown = bit_breakdown(state, datatype="Q(1,4,11)")
        assert breakdown.zero_bit_fraction > 0.65

    def test_zero_centered_policy_more_zero_than_one_magnitude_bits(self):
        # Zero-centered weights still keep the high-order *magnitude* bits
        # clear; overall the zero-bit fraction stays at or above one half.
        state = {"w": np.random.default_rng(0).uniform(-0.3, 0.3, size=1000)}
        breakdown = bit_breakdown(state, datatype="Q(1,4,11)")
        assert breakdown.zero_bit_fraction >= 0.45

    def test_total_bits(self):
        breakdown = bit_breakdown({"w": np.zeros(10)}, datatype="int8")
        assert breakdown.total_bits == 80

    def test_min_max_recorded(self):
        breakdown = bit_breakdown({"w": np.array([-1.0, 2.0])}, datatype="Q(1,4,11)")
        assert breakdown.min_value == -1.0
        assert breakdown.max_value == 2.0

    def test_as_dict_keys(self):
        breakdown = bit_breakdown({"w": np.zeros(4)}, datatype="int8")
        assert set(breakdown.as_dict()) == {
            "zero_bit_fraction", "one_bit_fraction", "min_value", "max_value", "total_bits"
        }

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError):
            bit_breakdown({}, datatype="int8")
