"""Module base class and sequential container."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.parameter import Parameter


class Module:
    """Base class for all layers.

    Sub-classes implement :meth:`forward` and :meth:`backward`.  ``backward``
    receives the gradient of the loss with respect to the layer output,
    accumulates parameter gradients, and returns the gradient with respect to
    the layer input, or ``None`` without computing it when ``input_grad`` is
    false.
    """

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        raise NotImplementedError

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    def parameters(self) -> List[Parameter]:
        """All trainable parameters of this module (default: none)."""
        return []

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for index, parameter in enumerate(self.parameters()):
            name = parameter.name or f"param{index}"
            yield (f"{prefix}{name}", parameter)

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: parameter.value.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            parameter.copy_(state[name])


class Sequential(Module):
    """Feed-forward chain of modules with automatic backpropagation."""

    def __init__(self, *modules: Module) -> None:
        self.modules: List[Module] = list(modules)

    def append(self, module: Module) -> None:
        self.modules.append(module)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = inputs
        for module in self.modules:
            output = module.forward(output)
        return output

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        """Backpropagate through every module; ``input_grad`` reaches the first only.

        Trainers pass ``input_grad=False``: nothing reads the gradient of the
        network input, so the first layer skips building it.
        """
        if not self.modules:
            return grad_output if input_grad else None
        grad = grad_output
        for module in reversed(self.modules[1:]):
            grad = module.backward(grad)
        return self.modules[0].backward(grad, input_grad)

    def parameters(self) -> List[Parameter]:
        parameters: List[Parameter] = []
        for module in self.modules:
            parameters.extend(module.parameters())
        return parameters

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for index, module in enumerate(self.modules):
            yield from module.named_parameters(prefix=f"{prefix}{index}.")

    def __len__(self) -> int:
        return len(self.modules)

    def __getitem__(self, index: int) -> Module:
        return self.modules[index]

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)
