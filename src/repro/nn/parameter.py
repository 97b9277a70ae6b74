"""Trainable parameter container."""

from __future__ import annotations

import numpy as np


class Parameter:
    """A named, trainable tensor with an accumulated gradient.

    The fault injector reads and rewrites ``value`` in place; optimizers
    consume ``grad`` and call :meth:`zero_grad` between steps.
    """

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def accumulate_grad(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.value.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{self.name!r} of shape {self.value.shape}"
            )
        self.grad += grad

    def copy_(self, value: np.ndarray) -> None:
        """Overwrite the parameter value in place, keeping shape and dtype."""
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self.value.shape:
            raise ValueError(
                f"cannot copy value of shape {value.shape} into parameter "
                f"{self.name!r} of shape {self.value.shape}"
            )
        np.copyto(self.value, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"
