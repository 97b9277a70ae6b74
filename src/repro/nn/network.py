"""Policy network constructors and state-dict helpers.

These factories build the two policy topologies evaluated in the paper: the
small MLP Q-network used for GridWorld (4-dimensional one-step observation,
4 actions) and the perception CNN used for drone navigation (front-camera
image, 25-action probabilistic head).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.nn.activations import ReLU, Softmax
from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.init import xavier_uniform, zeros_init
from repro.nn.layers import Flatten, Linear
from repro.nn.module import Module, Sequential
from repro.utils.rng import as_rng, child_seeds, spawn_rngs


def build_gridworld_q_network(
    observation_size: int = 4,
    action_count: int = 4,
    hidden_sizes: Sequence[int] = (32, 32),
    rng=None,
    state: Optional[Dict[str, np.ndarray]] = None,
) -> Sequential:
    """MLP Q-network for the GridWorld navigation task.

    The observation is the 4-cell neighbourhood encoding (values in
    {-1, 0, 1}) and the output is one Q-value per action in
    {up, down, right, left}.

    With ``state`` the network holds a copy of it, checked as
    :meth:`~repro.nn.module.Module.load_state_dict` checks it, and no layer
    runs its random init.  ``rng`` still makes the one draw a random init
    makes on it, the layers' :func:`~repro.utils.rng.child_seeds`, so it
    ends where a random init leaves it.
    """
    rng = as_rng(rng)
    layer_count = len(hidden_sizes) + 1
    if state is None:
        layer_rngs = spawn_rngs(rng, layer_count)
        init = xavier_uniform
    else:
        child_seeds(rng, layer_count)
        layer_rngs = [None] * layer_count
        init = zeros_init
    layers = []
    previous = observation_size
    for index, hidden in enumerate(hidden_sizes):
        layers.append(Linear(previous, hidden, rng=layer_rngs[index], init=init))
        layers.append(ReLU())
        previous = hidden
    layers.append(Linear(previous, action_count, rng=layer_rngs[-1], init=init))
    network = Sequential(*layers)
    if state is not None:
        network.load_state_dict(state)
    return network


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


def state_dict(module: Module) -> Dict[str, np.ndarray]:
    """Copy of every named parameter value in ``module``."""
    return module.state_dict()


def load_state_dict(module: Module, state: Dict[str, np.ndarray]) -> None:
    """Load ``state`` into ``module`` (strict name matching)."""
    module.load_state_dict(state)


def clone_state_dict(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Deep copy of a state dict."""
    return {name: np.array(value, copy=True) for name, value in state.items()}
