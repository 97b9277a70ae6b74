"""Tests for bit-error-rate handling."""

import pytest

from repro.faults import BitErrorRate


class TestBitErrorRate:
    def test_percent_property(self):
        assert BitErrorRate(0.001).percent == pytest.approx(0.1)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            BitErrorRate(-0.1)
        with pytest.raises(ValueError):
            BitErrorRate(1.5)

    def test_expected_faults(self):
        assert BitErrorRate(0.01).expected_faults(10_000) == pytest.approx(100)

    def test_fault_count_zero_rate(self, rng):
        assert BitErrorRate(0.0).fault_count(1_000_000, rng) == 0

    def test_fault_count_large_rate_deterministic(self, rng):
        assert BitErrorRate(0.02).fault_count(2600 * 8, rng) == round(2600 * 8 * 0.02)

    def test_label_matches_paper_style(self):
        # GridWorld heatmap row labels look like "52 (2.0%)".
        label = BitErrorRate(0.02).label(2600)
        assert label == "52 (2.0%)"

    def test_str(self):
        assert str(BitErrorRate(0.001)) == "0.001"
