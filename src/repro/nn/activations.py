"""Activation layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._cached_mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        self._cached_mask = inputs > 0
        return inputs * self._cached_mask

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        if self._cached_mask is None:
            raise RuntimeError("backward called before forward")
        if not input_grad:
            return None
        return np.asarray(grad_output, dtype=np.float64) * self._cached_mask


class Softmax(Module):
    """Row-wise softmax layer.

    Used as the output head of the drone policy network, which produces a
    probability distribution over the 25-element action space.
    """

    def __init__(self) -> None:
        super().__init__()
        self._cached_output: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 1:
            inputs = inputs.reshape(1, -1)
        shifted = inputs - inputs.max(axis=1, keepdims=True)
        exps = np.exp(shifted)
        self._cached_output = exps / exps.sum(axis=1, keepdims=True)
        return self._cached_output

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        if self._cached_output is None:
            raise RuntimeError("backward called before forward")
        if not input_grad:
            return None
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if grad_output.ndim == 1:
            grad_output = grad_output.reshape(1, -1)
        softmax = self._cached_output
        dot = np.sum(grad_output * softmax, axis=1, keepdims=True)
        return softmax * (grad_output - dot)
