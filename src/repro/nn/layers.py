"""Dense and structural layers."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.init import xavier_uniform, zeros_init
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class Linear(Module):
    """Fully connected layer ``y = x @ W + b``.

    Weights are stored as ``(in_features, out_features)`` so a batch of row
    vectors maps directly onto a matrix product.  A stack of single rows
    ``(rows, 1, in_features)`` runs one single-row product per row, the BLAS
    call of a one-row forward, so every row keeps its bytes.  Stacked
    forwards are inference-only: ``backward`` refuses them.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng=None,
        init=xavier_uniform,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init((in_features, out_features), rng=rng), name="weight")
        self.bias: Optional[Parameter] = (
            Parameter(zeros_init((out_features,)), name="bias") if bias else None
        )
        self._cached_input: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 1:
            inputs = inputs.reshape(1, -1)
        if inputs.shape[-1] != self.in_features:
            raise ValueError(
                f"expected input with {self.in_features} features, got {inputs.shape[-1]}"
            )
        self._cached_input = inputs
        output = inputs @ self.weight.value
        if self.bias is not None:
            output = output + self.bias.value
        return output

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        if self._cached_input is None:
            raise RuntimeError("backward called before forward")
        if self._cached_input.ndim != 2:
            raise RuntimeError("backward after a stacked forward; stacks are inference-only")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if grad_output.ndim == 1:
            grad_output = grad_output.reshape(1, -1)
        self.weight.accumulate_grad(self._cached_input.T @ grad_output)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_output.sum(axis=0))
        if not input_grad:
            return None
        return grad_output @ self.weight.value.T

    def parameters(self) -> List[Parameter]:
        if self.bias is None:
            return [self.weight]
        return [self.weight, self.bias]


class Flatten(Module):
    """Flatten all dimensions except the batch dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._cached_shape: Optional[tuple] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        self._cached_shape = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        if self._cached_shape is None:
            raise RuntimeError("backward called before forward")
        if not input_grad:
            return None
        return np.asarray(grad_output, dtype=np.float64).reshape(self._cached_shape)

