"""Tests for activation layers."""

import numpy as np
import pytest

from repro.nn import ReLU, Softmax


class TestReLU:
    def test_forward_clips_negative(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_backward_masks_gradient(self):
        relu = ReLU()
        relu.forward(np.array([-1.0, 3.0]))
        grad = relu.backward(np.array([5.0, 5.0]))
        np.testing.assert_array_equal(grad, [0.0, 5.0])

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.zeros(2))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = Softmax().forward(np.random.default_rng(0).normal(size=(5, 7)))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5))

    def test_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        softmax = Softmax()
        np.testing.assert_allclose(softmax.forward(x), softmax.forward(x + 100.0))

    def test_1d_promoted(self):
        assert Softmax().forward(np.array([0.0, 0.0])).shape == (1, 2)

    def test_backward_jacobian(self):
        # Check the softmax backward pass against a numerical Jacobian product.
        softmax = Softmax()
        x = np.array([[0.3, -0.7, 1.1]])
        upstream = np.array([[0.2, -0.5, 0.9]])
        analytic = softmax.forward(x)
        grad = softmax.backward(upstream)
        eps = 1e-6
        numeric = np.zeros_like(x)
        for i in range(x.shape[1]):
            bumped = x.copy()
            bumped[0, i] += eps
            plus = Softmax().forward(bumped)
            bumped[0, i] -= 2 * eps
            minus = Softmax().forward(bumped)
            numeric[0, i] = ((plus - minus) / (2 * eps) * upstream).sum()
        np.testing.assert_allclose(grad, numeric, atol=1e-6)
        assert analytic.shape == grad.shape
