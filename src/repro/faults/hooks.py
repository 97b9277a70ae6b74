"""Dynamic activation/feature-map fault hooks.

The paper's dynamic injection corrupts activations and feature maps while the
network executes.  :class:`ActivationFaultHook` wraps any layer of a
:class:`repro.nn.Sequential` network; during the forward pass the wrapped
layer's output is passed through the fault injector before flowing to the next
layer.  The hook is transparent to backpropagation (faults are transient
value corruptions, not differentiable operations).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.faults.ber import BitErrorRate
from repro.faults.injector import FaultInjector
from repro.nn.module import Module, Sequential


class ActivationFaultHook(Module):
    """Wrap a layer so its forward output is corrupted by a fault injector."""

    def __init__(
        self,
        wrapped: Module,
        injector: FaultInjector,
        bit_error_rate: Union[float, BitErrorRate],
        enabled: bool = True,
    ) -> None:
        super().__init__()
        self.wrapped = wrapped
        self.injector = injector
        self.bit_error_rate = (
            bit_error_rate
            if isinstance(bit_error_rate, BitErrorRate)
            else BitErrorRate(float(bit_error_rate))
        )
        self.enabled = enabled
        self.injection_count = 0

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Forward through the wrapped layer, corrupting the activations when enabled."""
        output = self.wrapped.forward(inputs)
        if self.enabled and self.bit_error_rate.rate > 0.0:
            output = self.injector.corrupt_array(output, self.bit_error_rate)
            self.injection_count += 1
        return output

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        """Delegate the backward pass to the wrapped layer unchanged."""
        return self.wrapped.backward(grad_output, input_grad)

    def parameters(self):
        """The wrapped layer's parameters (the hook adds none of its own)."""
        return self.wrapped.parameters()

    def named_parameters(self, prefix: str = ""):
        """The wrapped layer's named parameters under ``prefix``."""
        return self.wrapped.named_parameters(prefix=prefix)


def attach_activation_faults(
    network: Sequential,
    injector: FaultInjector,
    bit_error_rate: Union[float, BitErrorRate],
    layer_indices: Optional[Sequence[int]] = None,
) -> List[ActivationFaultHook]:
    """Wrap layers of ``network`` in-place with activation fault hooks.

    ``layer_indices`` selects which layers to instrument (defaults to every
    layer).  Returns the created hooks so callers can enable/disable them per
    episode or inspect injection counts.
    """
    indices = list(range(len(network))) if layer_indices is None else list(layer_indices)
    hooks: List[ActivationFaultHook] = []
    for index in indices:
        if index < 0 or index >= len(network):
            raise IndexError(f"layer index {index} out of range for network of {len(network)}")
        hook = ActivationFaultHook(network.modules[index], injector, bit_error_rate)
        network.modules[index] = hook
        hooks.append(hook)
    return hooks


def detach_activation_faults(network: Sequential) -> int:
    """Remove every activation fault hook from ``network``; returns the count."""
    removed = 0
    for index, module in enumerate(network.modules):
        if isinstance(module, ActivationFaultHook):
            network.modules[index] = module.wrapped
            removed += 1
    return removed
