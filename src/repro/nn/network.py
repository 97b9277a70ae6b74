"""Policy network constructors and state-dict helpers.

These factories build the two policy topologies evaluated in the paper: the
small MLP Q-network used for GridWorld (4-dimensional one-step observation,
4 actions) and the perception CNN used for drone navigation (front-camera
image, 25-action probabilistic head).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.nn.activations import ReLU, Softmax
from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.layers import Flatten, Linear
from repro.nn.module import Sequential
from repro.utils.rng import as_rng, spawn_rngs


def build_gridworld_q_network(
    observation_size: int = 4,
    action_count: int = 4,
    hidden_sizes: Sequence[int] = (32, 32),
    rng=None,
) -> Sequential:
    """MLP Q-network for the GridWorld navigation task.

    The observation is the 4-cell neighbourhood encoding (values in
    {-1, 0, 1}) and the output is one Q-value per action in
    {up, down, right, left}.
    """
    rng = as_rng(rng)
    layer_rngs = spawn_rngs(rng, len(hidden_sizes) + 1)
    layers = []
    previous = observation_size
    for index, hidden in enumerate(hidden_sizes):
        layers.append(Linear(previous, hidden, rng=layer_rngs[index]))
        layers.append(ReLU())
        previous = hidden
    layers.append(Linear(previous, action_count, rng=layer_rngs[-1]))
    return Sequential(*layers)


def gridworld_q_values(state: Dict[str, np.ndarray], observations: np.ndarray) -> np.ndarray:
    """Q-values for ``observations`` of the :func:`build_gridworld_q_network` holding ``state``.

    Runs the layers' own ops (``x @ W``, ``+ b``, ``x > 0``, ``x * mask``) on
    the state's arrays, so the result has the bytes of that network's
    forward on the same input, whatever its leading shape.
    """
    layer_count = len(state) // 2
    if not layer_count:
        raise ValueError(f"no Q-network layers in a state dict with keys {sorted(state)}")
    values = np.asarray(observations, dtype=np.float64)
    for layer in range(layer_count):
        values = values @ np.ascontiguousarray(state[f"{2 * layer}.weight"], dtype=np.float64)
        values = values + np.ascontiguousarray(state[f"{2 * layer}.bias"], dtype=np.float64)
        if layer < layer_count - 1:
            values = values * (values > 0)
    return values


def check_gridworld_q_state(
    state: Dict[str, np.ndarray],
    observation_size: int,
    action_count: int,
    hidden_sizes: Sequence[int],
) -> None:
    """Raise what loading ``state`` into that :func:`build_gridworld_q_network` raises.

    A ``KeyError`` on missing or unexpected names, else a ``ValueError`` on
    the first wrongly shaped entry, in parameter order.
    """
    sizes = (observation_size, *hidden_sizes, action_count)
    shapes = {}
    for layer, shape in enumerate(zip(sizes, sizes[1:])):
        shapes[f"{2 * layer}.weight"], shapes[f"{2 * layer}.bias"] = shape, shape[1:]
    if state.keys() != shapes.keys():
        missing = sorted(shapes.keys() - state.keys())
        unexpected = sorted(state.keys() - shapes.keys())
        raise KeyError(f"state dict mismatch: missing={missing}, unexpected={unexpected}")
    for name, shape in shapes.items():
        if np.shape(state[name]) != shape:
            raise ValueError(
                f"cannot copy value of shape {np.shape(state[name])} into parameter "
                f"{name.split('.')[1]!r} of shape {shape}"
            )


def build_drone_policy_network(
    input_shape: Sequence[int] = (3, 18, 32),
    action_count: int = 25,
    conv_channels: Sequence[int] = (8, 16, 16),
    fc_hidden: int = 64,
    rng=None,
) -> Sequential:
    """CNN policy for drone navigation (3 Conv layers + 2 FC layers).

    The paper's policy takes a 320x180 RGB frame; this reproduction uses a
    downsampled frame (default 32x18) from the synthetic ray-cast camera so the
    full federated fault-injection campaigns run on CPU.  The topology —
    three convolutions followed by two fully connected layers ending in a
    25-way softmax — matches the paper.
    """
    channels, height, width = (int(v) for v in input_shape)
    rng = as_rng(rng)
    conv_rngs = spawn_rngs(rng, len(conv_channels) + 2)
    layers = []
    previous_channels = channels
    current_h, current_w = height, width
    for index, out_channels in enumerate(conv_channels):
        layers.append(
            Conv2d(previous_channels, out_channels, kernel_size=3, stride=1, padding=1,
                   rng=conv_rngs[index])
        )
        layers.append(ReLU())
        layers.append(MaxPool2d(2))
        previous_channels = out_channels
        current_h //= 2
        current_w //= 2
        if current_h == 0 or current_w == 0:
            raise ValueError(
                f"input shape {tuple(input_shape)} is too small for {len(conv_channels)} "
                "conv+pool stages"
            )
    layers.append(Flatten())
    flat_features = previous_channels * current_h * current_w
    layers.append(Linear(flat_features, fc_hidden, rng=conv_rngs[-2]))
    layers.append(ReLU())
    layers.append(Linear(fc_hidden, action_count, rng=conv_rngs[-1]))
    layers.append(Softmax())
    return Sequential(*layers)


def clone_state_dict(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Deep copy of a state dict."""
    return {name: np.array(value, copy=True) for name, value in state.items()}
