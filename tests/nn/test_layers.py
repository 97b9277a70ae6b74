"""Tests for dense/structural layers and the module machinery."""

import numpy as np
import pytest

from repro.nn import Flatten, Linear, Parameter, ReLU, Sequential


class TestParameter:
    def test_grad_initialized_to_zero(self):
        param = Parameter(np.ones((2, 2)))
        assert np.all(param.grad == 0)

    def test_accumulate_grad_adds(self):
        param = Parameter(np.zeros(3))
        param.accumulate_grad(np.ones(3))
        param.accumulate_grad(np.ones(3))
        np.testing.assert_array_equal(param.grad, 2 * np.ones(3))

    def test_accumulate_shape_mismatch(self):
        with pytest.raises(ValueError):
            Parameter(np.zeros(3)).accumulate_grad(np.zeros(4))

    def test_copy_preserves_identity(self):
        param = Parameter(np.zeros(2))
        buffer = param.value
        param.copy_(np.ones(2))
        assert param.value is buffer
        np.testing.assert_array_equal(param.value, np.ones(2))

    def test_copy_shape_mismatch(self):
        with pytest.raises(ValueError):
            Parameter(np.zeros(2)).copy_(np.zeros(3))


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, rng=0)
        assert layer.forward(np.zeros((7, 4))).shape == (7, 3)

    def test_forward_1d_promoted(self):
        layer = Linear(4, 3, rng=0)
        assert layer.forward(np.zeros(4)).shape == (1, 3)

    def test_wrong_feature_count(self):
        with pytest.raises(ValueError):
            Linear(4, 3, rng=0).forward(np.zeros((2, 5)))

    def test_bias_optional(self):
        layer = Linear(2, 2, bias=False, rng=0)
        assert len(layer.parameters()) == 1

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Linear(2, 2, rng=0).backward(np.zeros((1, 2)))

    def test_known_matmul(self):
        layer = Linear(2, 2, rng=0)
        layer.weight.copy_(np.array([[1.0, 2.0], [3.0, 4.0]]))
        layer.bias.copy_(np.array([1.0, -1.0]))
        out = layer.forward(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[5.0, 5.0]])

    def test_backward_gradient_shapes(self):
        layer = Linear(3, 2, rng=0)
        layer.forward(np.zeros((4, 3)))
        grad_in = layer.backward(np.ones((4, 2)))
        assert grad_in.shape == (4, 3)
        assert layer.weight.grad.shape == (3, 2)
        assert layer.bias.grad.shape == (2,)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 2)


class TestFlatten:
    def test_flatten_roundtrip(self):
        flatten = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        out = flatten.forward(x)
        assert out.shape == (2, 12)
        grad = flatten.backward(out)
        assert grad.shape == (2, 3, 4)


class TestSequential:
    def test_forward_backward_chain(self):
        net = Sequential(Linear(3, 5, rng=0), ReLU(), Linear(5, 2, rng=1))
        out = net.forward(np.ones((2, 3)))
        assert out.shape == (2, 2)
        grad = net.backward(np.ones((2, 2)))
        assert grad.shape == (2, 3)

    def test_named_parameters_unique(self):
        net = Sequential(Linear(3, 3, rng=0), ReLU(), Linear(3, 3, rng=1))
        names = [name for name, _ in net.named_parameters()]
        assert len(names) == len(set(names)) == 4

    def test_state_dict_roundtrip(self):
        net = Sequential(Linear(3, 3, rng=0))
        other = Sequential(Linear(3, 3, rng=5))
        other.load_state_dict(net.state_dict())
        np.testing.assert_array_equal(other[0].weight.value, net[0].weight.value)

    def test_load_state_dict_mismatch(self):
        net = Sequential(Linear(3, 3, rng=0))
        with pytest.raises(KeyError):
            net.load_state_dict({"bogus": np.zeros(1)})

    def test_zero_grad(self):
        net = Sequential(Linear(2, 2, rng=0))
        net.forward(np.ones((1, 2)))
        net.backward(np.ones((1, 2)))
        net.zero_grad()
        assert np.all(net[0].weight.grad == 0)

    def test_len_iter_getitem(self):
        net = Sequential(ReLU(), ReLU())
        assert len(net) == 2
        assert list(iter(net))[0] is net[0]

    def test_append(self):
        net = Sequential(ReLU())
        net.append(ReLU())
        assert len(net) == 2
