"""Minimal pure-numpy neural-network substrate.

The paper's policies are small networks (an MLP for GridWorld, a three-Conv /
two-FC CNN for drone navigation) executed on edge accelerators.  This package
implements the complete substrate needed to train and run those policies —
layers, activations, losses, optimizers and (de)serializable parameter state —
without any external ML framework, so the fault-injection engine can corrupt
the exact tensors the policies compute with.
"""

from repro.nn.parameter import Parameter
from repro.nn.module import Module, Sequential
from repro.nn.layers import Flatten, Linear
from repro.nn.activations import ReLU, Softmax
from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.losses import HuberLoss, softmax
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.init import he_uniform, xavier_uniform, zeros_init
from repro.nn.network import (
    build_drone_policy_network,
    build_gridworld_q_network,
    clone_state_dict,
)

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Linear",
    "Flatten",
    "ReLU",
    "Softmax",
    "Conv2d",
    "MaxPool2d",
    "HuberLoss",
    "softmax",
    "Optimizer",
    "SGD",
    "Adam",
    "xavier_uniform",
    "he_uniform",
    "zeros_init",
    "build_gridworld_q_network",
    "build_drone_policy_network",
    "clone_state_dict",
]
