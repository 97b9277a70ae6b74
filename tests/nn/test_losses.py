"""Tests for loss functions."""

import numpy as np
import pytest

from repro.nn import HuberLoss, softmax


class TestSoftmaxHelpers:
    def test_softmax_sums_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(4, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4))

    def test_softmax_stable_for_large_logits(self):
        probs = softmax(np.array([[1e4, 0.0]]))
        assert np.isfinite(probs).all()


class TestHuberLoss:
    def test_quadratic_region_matches_mse_half(self):
        loss, _ = HuberLoss(delta=1.0)(np.array([[0.5]]), np.array([[0.0]]))
        assert loss == pytest.approx(0.125)

    def test_linear_region(self):
        loss, _ = HuberLoss(delta=1.0)(np.array([[3.0]]), np.array([[0.0]]))
        assert loss == pytest.approx(2.5)

    def test_gradient_clipped_in_linear_region(self):
        _, grad = HuberLoss(delta=1.0)(np.array([[10.0]]), np.array([[0.0]]))
        assert grad[0, 0] == pytest.approx(1.0)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            HuberLoss(delta=0.0)

