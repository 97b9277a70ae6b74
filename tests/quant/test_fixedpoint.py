"""Tests for fixed-point Q(sign, integer, fraction) codecs."""

import numpy as np
import pytest

from repro.quant import Q1_2_5, Q1_4_11, Q1_7_8, Q1_10_5, FixedPointFormat


class TestFormatProperties:
    def test_total_bits(self):
        assert Q1_4_11.total_bits == 16
        assert Q1_7_8.total_bits == 16
        assert Q1_10_5.total_bits == 16
        assert Q1_2_5.total_bits == 8

    def test_names(self):
        assert Q1_4_11.name == "Q(1,4,11)"
        assert str(Q1_2_5) == "Q(1,2,5)"

    def test_ranges_ordered_by_integer_bits(self):
        assert Q1_4_11.max_value < Q1_7_8.max_value < Q1_10_5.max_value

    def test_scale(self):
        assert Q1_4_11.scale == pytest.approx(2**-11)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            FixedPointFormat(integer_bits=40, fraction_bits=40)
        with pytest.raises(ValueError):
            FixedPointFormat(integer_bits=-1, fraction_bits=2)


class TestEncodeDecode:
    def test_roundtrip_small_error(self):
        values = np.linspace(-3.0, 3.0, 101)
        error = np.abs(Q1_4_11.roundtrip(values) - values).max()
        assert error <= Q1_4_11.scale / 2 + 1e-12

    def test_zero_exact(self):
        assert Q1_7_8.roundtrip(np.array([0.0]))[0] == 0.0

    def test_saturation_at_extremes(self):
        out = Q1_2_5.roundtrip(np.array([100.0, -100.0]))
        assert out[0] == pytest.approx(Q1_2_5.max_value)
        assert out[1] == pytest.approx(Q1_2_5.min_value)

    def test_encode_dtype(self):
        codes = Q1_4_11.encode(np.array([0.5]))
        assert codes.dtype == np.int16
        assert Q1_2_5.encode(np.array([0.5])).dtype == np.int8

    def test_decode_two_complement_wraparound(self):
        # Raw code 0xFF in an 8-bit format is -1 LSB.
        decoded = Q1_2_5.decode(np.array([0xFF], dtype=np.uint8))
        assert decoded[0] == pytest.approx(-Q1_2_5.scale)

    def test_quantization_error_monotone_in_fraction_bits(self):
        values = np.random.default_rng(0).uniform(-3, 3, size=1000)
        assert Q1_4_11.quantization_error(values) < Q1_10_5.quantization_error(values)

    def test_wide_format_bigger_outliers_under_bit_flip(self):
        # Flipping the top magnitude bit produces a larger value deviation in
        # the wide-range format — the mechanism behind the data-type study.
        value = np.array([0.5])
        for fmt_small, fmt_large in [(Q1_4_11, Q1_10_5)]:
            code_small = fmt_small.encode(value)
            code_large = fmt_large.encode(value)
            flipped_small = fmt_small.decode(code_small ^ (1 << (fmt_small.total_bits - 2)))
            flipped_large = fmt_large.decode(code_large ^ (1 << (fmt_large.total_bits - 2)))
            assert abs(flipped_large[0] - 0.5) > abs(flipped_small[0] - 0.5)
