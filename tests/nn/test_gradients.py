"""Numerical gradient checks for the whole network stack.

These tests validate backpropagation end to end by comparing analytic
parameter gradients against central finite differences on small networks.
"""

import numpy as np
import pytest

from repro.nn import HuberLoss, Linear, ReLU, Sequential, Softmax
from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.layers import Flatten


def numerical_gradient(network, loss_fn, x, y, parameter, index, eps=1e-6):
    original = parameter.value.flat[index]
    parameter.value.flat[index] = original + eps
    plus, _ = loss_fn(network.forward(x), y)
    parameter.value.flat[index] = original - eps
    minus, _ = loss_fn(network.forward(x), y)
    parameter.value.flat[index] = original
    return (plus - minus) / (2 * eps)


def analytic_gradients(network, loss_fn, x, y):
    out = network.forward(x)
    _, grad = loss_fn(out, y)
    network.zero_grad()
    network.backward(grad)


@pytest.mark.parametrize("activation", [ReLU, Softmax])
def test_mlp_gradients_match_numerical(activation):
    rng = np.random.default_rng(0)
    network = Sequential(Linear(3, 6, rng=0), activation(), Linear(6, 2, rng=1))
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 2))
    loss_fn = HuberLoss()
    analytic_gradients(network, loss_fn, x, y)
    for parameter in network.parameters():
        for index in range(0, parameter.size, max(1, parameter.size // 5)):
            numeric = numerical_gradient(network, loss_fn, x, y, parameter, index)
            assert parameter.grad.flat[index] == pytest.approx(numeric, rel=1e-4, abs=1e-7)


def test_cnn_gradients_match_numerical():
    rng = np.random.default_rng(1)
    network = Sequential(
        Conv2d(1, 2, kernel_size=3, padding=1, rng=0),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(2 * 3 * 3, 4, rng=1),
        Softmax(),
    )
    x = rng.normal(size=(2, 1, 6, 6))
    y = np.abs(rng.normal(size=(2, 4)))
    y /= y.sum(axis=1, keepdims=True)
    loss_fn = HuberLoss()
    analytic_gradients(network, loss_fn, x, y)
    checked = 0
    for parameter in network.parameters():
        for index in range(0, parameter.size, max(1, parameter.size // 4)):
            numeric = numerical_gradient(network, loss_fn, x, y, parameter, index)
            assert parameter.grad.flat[index] == pytest.approx(numeric, rel=1e-3, abs=1e-7)
            checked += 1
    assert checked > 10


def test_input_gradient_matches_numerical():
    rng = np.random.default_rng(2)
    network = Sequential(Linear(4, 5, rng=0), ReLU(), Linear(5, 3, rng=1))
    x = rng.normal(size=(1, 4))
    y = rng.normal(size=(1, 3))
    loss_fn = HuberLoss()
    out = network.forward(x)
    _, grad = loss_fn(out, y)
    network.zero_grad()
    input_grad = network.backward(grad)
    eps = 1e-6
    for index in range(4):
        bumped = x.copy()
        bumped[0, index] += eps
        plus, _ = loss_fn(network.forward(bumped), y)
        bumped[0, index] -= 2 * eps
        minus, _ = loss_fn(network.forward(bumped), y)
        numeric = (plus - minus) / (2 * eps)
        assert input_grad[0, index] == pytest.approx(numeric, rel=1e-4, abs=1e-8)
