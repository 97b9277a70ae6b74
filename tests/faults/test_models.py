"""Tests for bit-level fault models."""

import numpy as np
import pytest

from repro.faults import StuckAt0, StuckAt1, TransientBitFlip, resolve_fault_model


class TestTransientBitFlip:
    def test_flips_selected_bit(self):
        model = TransientBitFlip()
        out = model.apply(np.array([0], dtype=np.int8), np.array([0]), np.array([1]), 8)
        assert out[0] == 2

    def test_flip_is_involution(self):
        model = TransientBitFlip()
        codes = np.array([37, -12], dtype=np.int8)
        once = model.apply(codes, np.array([1]), np.array([6]), 8)
        twice = model.apply(once, np.array([1]), np.array([6]), 8)
        np.testing.assert_array_equal(twice, codes)


class TestStuckAt:
    def test_stuck_at_0_clears(self):
        out = StuckAt0().apply(np.array([0b1111], dtype=np.int8), np.array([0]), np.array([0]), 8)
        assert out[0] == 0b1110

    def test_stuck_at_1_sets(self):
        out = StuckAt1().apply(np.array([0], dtype=np.int8), np.array([0]), np.array([4]), 8)
        assert out[0] == 16

    def test_stuck_models_idempotent(self):
        for model in (StuckAt0(), StuckAt1()):
            codes = np.array([99], dtype=np.int8)
            once = model.apply(codes, np.array([0]), np.array([3]), 8)
            twice = model.apply(once, np.array([0]), np.array([3]), 8)
            np.testing.assert_array_equal(once, twice)


class TestResolveFaultModel:
    @pytest.mark.parametrize("name,expected", [
        ("transient", TransientBitFlip),
        ("stuck-at-0", StuckAt0),
        ("stuck-at-1", StuckAt1),
    ])
    def test_known_names(self, name, expected):
        assert isinstance(resolve_fault_model(name), expected)

    def test_instance_passthrough(self):
        model = StuckAt0()
        assert resolve_fault_model(model) is model

    def test_unknown_name(self):
        with pytest.raises(KeyError, match=r"known models: \['stuck-at-0', 'stuck-at-1', 'transient'\]"):
            resolve_fault_model("gamma-ray")

    @pytest.mark.parametrize("alias", ["bitflip", "sa1", "STUCK_AT_1"])
    def test_aliases_rejected(self, alias):
        with pytest.raises(KeyError):
            resolve_fault_model(alias)

    def test_equality_by_type(self):
        assert TransientBitFlip() == TransientBitFlip()
        assert TransientBitFlip() != StuckAt0()
        assert len({TransientBitFlip(), TransientBitFlip(), StuckAt1()}) == 2
