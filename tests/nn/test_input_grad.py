"""``backward(grad, input_grad=False)``: the parameter gradients, without the input's.

Trainers read only parameter gradients, so they pass ``input_grad=False``
and the network's first layer skips its input-gradient products (for the
drone CNN, conv1's ``grad @ W`` and its ``col2im`` fold).  Every parameter
gradient must keep the bytes of the full backward, and the call returns
``None``.
"""

import numpy as np
import pytest

from repro.core.config import DroneScale
from repro.core.workloads import drone_agent_config
from repro.faults import FaultInjector, attach_activation_faults
from repro.nn import Sequential, build_gridworld_q_network
from repro.nn.activations import ReLU, Softmax
from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.layers import Flatten, Linear
from repro.rl.reinforce import ReinforceAgent, ReinforceConfig


CONFIGS = {"tiny": drone_agent_config(DroneScale.tiny()), "default": ReinforceConfig()}


def _drone_network(config):
    return ReinforceAgent(CONFIGS[config], rng=np.random.default_rng(3)).network


def _gradient_bytes(network, inputs, grad_output, input_grad):
    network.forward(inputs)
    network.zero_grad()
    result = network.backward(grad_output, input_grad=input_grad)
    return result, [parameter.grad.tobytes() for parameter in network.parameters()]


def _assert_parameter_gradients_kept(make_network, inputs, grad_output):
    full_network, partial_network = make_network(), make_network()
    full, full_grads = _gradient_bytes(full_network, inputs, grad_output, True)
    partial, partial_grads = _gradient_bytes(partial_network, inputs, grad_output, False)
    assert full is not None and full.shape == inputs.shape
    assert partial is None
    assert partial_grads == full_grads


@pytest.mark.parametrize("config", ["tiny", "default"])
@pytest.mark.parametrize("batch", [1, 7])
def test_drone_cnn(config, batch):
    rng = np.random.default_rng(batch)
    inputs = rng.normal(size=(batch, *CONFIGS[config].input_shape))
    grad_output = rng.normal(size=(batch, 25))
    _assert_parameter_gradients_kept(lambda: _drone_network(config), inputs, grad_output)


@pytest.mark.parametrize("batch", [1, 16])
def test_q_network(batch):
    rng = np.random.default_rng(batch)
    inputs = rng.normal(size=(batch, 6))
    grad_output = rng.normal(size=(batch, 4))
    _assert_parameter_gradients_kept(
        lambda: build_gridworld_q_network(observation_size=6, rng=4), inputs, grad_output
    )


@pytest.mark.parametrize("network", ["drone", "q"])
def test_first_layer_in_activation_fault_hook(network):
    def make():
        if network == "drone":
            model = _drone_network("tiny")
        else:
            model = build_gridworld_q_network(observation_size=6, rng=4)
        attach_activation_faults(
            model, FaultInjector(datatype="Q(1,7,8)", rng=12), 0.01, layer_indices=[0]
        )
        return model

    rng = np.random.default_rng(8)
    shape = CONFIGS["tiny"].input_shape if network == "drone" else (6,)
    outputs = 25 if network == "drone" else 4
    _assert_parameter_gradients_kept(
        make, rng.normal(size=(4, *shape)), rng.normal(size=(4, outputs))
    )


@pytest.mark.parametrize(
    "layer, shape",
    [
        (Conv2d(2, 3, kernel_size=3, padding=1, rng=0), (2, 2, 5, 5)),
        (MaxPool2d(2), (2, 2, 4, 4)),
        (Linear(5, 3, rng=0), (2, 5)),
        (ReLU(), (2, 5)),
        (Softmax(), (2, 5)),
        (Flatten(), (2, 2, 3)),
    ],
    ids=lambda value: type(value).__name__ if not isinstance(value, tuple) else None,
)
def test_every_layer_returns_none(layer, shape):
    inputs = np.random.default_rng(0).normal(size=shape)
    output = layer.forward(inputs)
    assert layer.backward(np.ones_like(output), input_grad=False) is None
    assert layer.backward(np.ones_like(output)).shape == inputs.shape


def test_only_the_first_module_skips_its_input_gradient():
    first, second = Linear(3, 4, rng=0), Linear(4, 2, rng=1)
    seen = []
    original = second.backward

    def spy(grad_output, input_grad=True):
        seen.append(input_grad)
        return original(grad_output, input_grad)

    second.backward = spy
    network = Sequential(first, ReLU(), second)
    network.forward(np.ones((2, 3)))
    assert network.backward(np.ones((2, 2)), input_grad=False) is None
    assert seen == [True]
