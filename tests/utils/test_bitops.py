"""Tests for bit-level helpers."""

import numpy as np
import pytest

from repro.utils.bitops import (
    count_ones,
    faults_for_ber,
    flip_bits,
    random_bit_positions,
    set_bits,
    signed_dtype_for,
    unsigned_dtype_for,
)


class TestDtypeSelection:
    @pytest.mark.parametrize("width,expected", [(8, np.uint8), (16, np.uint16), (12, np.uint16),
                                                 (32, np.uint32), (64, np.uint64)])
    def test_unsigned(self, width, expected):
        assert unsigned_dtype_for(width) == np.dtype(expected)

    def test_signed(self):
        assert signed_dtype_for(8) == np.dtype(np.int8)
        assert signed_dtype_for(16) == np.dtype(np.int16)

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError):
            unsigned_dtype_for(65)


class TestFlipBits:
    def test_single_flip(self):
        codes = np.array([0, 0, 0], dtype=np.int8)
        flipped = flip_bits(codes, np.array([1]), np.array([0]), bit_width=8)
        assert flipped.tolist() == [0, 1, 0]

    def test_double_flip_cancels(self):
        codes = np.array([0], dtype=np.int8)
        flipped = flip_bits(codes, np.array([0, 0]), np.array([3, 3]), bit_width=8)
        assert flipped.tolist() == [0]

    def test_sign_bit_flip(self):
        codes = np.array([0], dtype=np.int8)
        flipped = flip_bits(codes, np.array([0]), np.array([7]), bit_width=8)
        assert flipped[0] == -128

    def test_preserves_shape_and_dtype(self):
        codes = np.arange(12, dtype=np.int16).reshape(3, 4)
        flipped = flip_bits(codes, np.array([5]), np.array([2]), bit_width=16)
        assert flipped.shape == (3, 4)
        assert flipped.dtype == np.int16

    def test_original_untouched(self):
        codes = np.zeros(4, dtype=np.int8)
        flip_bits(codes, np.array([0]), np.array([0]), bit_width=8)
        assert codes.tolist() == [0, 0, 0, 0]

    def test_out_of_range_bit_rejected(self):
        with pytest.raises(ValueError):
            flip_bits(np.zeros(2, dtype=np.int8), np.array([0]), np.array([8]), bit_width=8)

    def test_out_of_range_element_rejected(self):
        with pytest.raises(IndexError):
            flip_bits(np.zeros(2, dtype=np.int8), np.array([5]), np.array([0]), bit_width=8)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            flip_bits(np.zeros(2, dtype=np.int8), np.array([0, 1]), np.array([0]), bit_width=8)


class TestSetBits:
    def test_stuck_at_one(self):
        codes = np.array([0], dtype=np.int8)
        result = set_bits(codes, np.array([0]), np.array([2]), bit_width=8, value=1)
        assert result[0] == 4

    def test_stuck_at_zero(self):
        codes = np.array([7], dtype=np.int8)
        result = set_bits(codes, np.array([0]), np.array([1]), bit_width=8, value=0)
        assert result[0] == 5

    def test_idempotent(self):
        codes = np.array([12], dtype=np.int8)
        once = set_bits(codes, np.array([0]), np.array([3]), 8, value=1)
        twice = set_bits(once, np.array([0]), np.array([3]), 8, value=1)
        assert once.tolist() == twice.tolist()

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            set_bits(np.zeros(1, dtype=np.int8), np.array([0]), np.array([0]), 8, value=2)


class TestCounting:
    def test_count_ones_simple(self):
        assert count_ones(np.array([0b1011], dtype=np.int8), 8) == 3

    def test_count_ones_negative_two_complement(self):
        # -1 in 8-bit two's complement is all ones.
        assert count_ones(np.array([-1], dtype=np.int8), 8) == 8

    def test_count_ones_zeros(self):
        assert count_ones(np.zeros(10, dtype=np.int8), 8) == 0

    def test_count_ones_empty(self):
        assert count_ones(np.zeros(0, dtype=np.int8), 8) == 0


class TestFaultCounts:
    def test_zero_rate(self, rng):
        assert faults_for_ber(1000, 0.0, rng) == 0

    def test_large_expected_deterministic(self, rng):
        assert faults_for_ber(10_000, 0.01, rng) == 100

    def test_small_expected_binomial(self, rng):
        counts = [faults_for_ber(100, 0.01, rng) for _ in range(200)]
        assert min(counts) >= 0
        assert 0.2 < np.mean(counts) < 3.0

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            faults_for_ber(10, 1.5, rng)

    def test_random_bit_positions_in_range(self, rng):
        positions = random_bit_positions(rng, 100, 16)
        assert positions.min() >= 0 and positions.max() < 16
