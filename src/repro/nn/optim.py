"""Gradient-descent optimizers."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.parameter import Parameter


class Optimizer:
    """Base optimizer over a fixed list of parameters."""

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer requires at least one parameter")

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        learning_rate: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {
            id(p): np.zeros_like(p.value) for p in self.parameters
        }

    def step(self) -> None:
        for parameter in self.parameters:
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.value
            if self.momentum:
                velocity = self._velocity[id(parameter)]
                velocity *= self.momentum
                velocity -= self.learning_rate * grad
                parameter.value += velocity
            else:
                parameter.value -= self.learning_rate * grad


class Adam(Optimizer):
    """Adam optimizer.

    The first and second moments are two flat float64 arrays holding every
    parameter's elements in parameter order, so a step runs each elementwise
    operation once over all parameters and then subtracts each parameter's
    slice of the update from its ``value`` in place.  Parameters keep their
    own ``value`` and ``grad`` arrays.  The flat arrays are allocated at the
    first step, so an optimizer that never steps (an inference agent's)
    holds none.

    An elementwise op computes each element from that element's operands
    alone, so every parameter gets the bytes a per-parameter loop gives it.
    The exception stays in the moments: for NaN + NaN numpy's add returns
    either operand's payload, by the element's place in the SIMD loop.  A
    moment turns NaN only in a step that also makes its parameter NaN, and
    a NaN parameter minus a NaN update keeps its own payload.  Only a
    parameter rewritten from outside (a fault flipping a NaN back into a
    number) takes a NaN moment's payload on the next step.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment: Optional[np.ndarray] = None
        self._second_moment: Optional[np.ndarray] = None
        self._update: Optional[np.ndarray] = None
        self._update_views: List[Tuple[Parameter, np.ndarray]] = []

    def step(self) -> None:
        if self._first_moment is None:
            stops = np.cumsum([p.value.size for p in self.parameters]).tolist()
            self._first_moment = np.zeros(stops[-1])
            self._second_moment = np.zeros(stops[-1])
            self._update = np.empty(stops[-1])
            self._update_views = [
                (p, self._update[stop - p.value.size : stop].reshape(p.value.shape))
                for p, stop in zip(self.parameters, stops)
            ]
        self._step_count += 1
        bias_correction1 = 1.0 - self.beta1**self._step_count
        bias_correction2 = 1.0 - self.beta2**self._step_count
        grad = np.concatenate([p.grad for p in self.parameters], axis=None)
        if self.weight_decay:
            grad = grad + self.weight_decay * np.concatenate(
                [p.value for p in self.parameters], axis=None
            )
        first = self._first_moment
        second = self._second_moment
        first *= self.beta1
        first += (1.0 - self.beta1) * grad
        second *= self.beta2
        second += (1.0 - self.beta2) * grad**2
        corrected_first = first / bias_correction1
        corrected_second = second / bias_correction2
        np.divide(
            self.learning_rate * corrected_first,
            np.sqrt(corrected_second) + self.epsilon,
            out=self._update,
        )
        for parameter, update in self._update_views:
            parameter.value -= update
