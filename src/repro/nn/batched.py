"""Lane-stacked forward passes over many same-topology policy networks.

The vectorized campaign path advances N independent rollouts ("lanes") in
lockstep; every lane owns its own policy weights, so a plain batched forward
through one network is not enough.  :class:`StackedPolicy` stacks the weights
of N networks along a leading lane axis and evaluates all lanes in single
numpy passes while preserving **bitwise identity** with calling each
network's own ``forward`` on its lane's observation.

The identity argument, layer by layer (each lane's row goes through exactly
the serial op sequence):

* ``Conv2d`` — :func:`~repro.nn.conv.unfold_patches` copies a strided window
  view of the whole lane stack into one C-contiguous buffer, so lane *i*'s
  block holds the serial batch-of-one buffer's bytes with its strides.  One
  ``np.matmul`` of ``(lanes, out_h * out_w, features)`` views of that buffer
  by ``(lanes, features, out)`` views of the weight stack runs every lane's
  product.  numpy's matmul loops over the stack and hands each lane's 2-D
  operands to BLAS as they are: the same ``gemm`` call, with the same
  transpose flags and leading dimensions, as the serial layer's
  ``columns @ W.T``.
* ``Linear`` — one ``np.matmul`` of ``(lanes, 1, F)`` by ``(lanes, F, H)``,
  which makes each lane's single-row ``gemv`` call of a serial ``(1, F) @
  (F, H)`` forward.  Lanes are never folded into the GEMM ``M`` dimension,
  because that changes the BLAS kernel's blocking (and therefore the
  reduction order).
* ``ReLU`` / ``Softmax`` — elementwise or row-wise along the last contiguous
  axis, where numpy's reductions are shape-independent.
* ``MaxPool2d`` — the serial layer's :func:`~repro.nn.conv._window_max` over
  the stacked im2col rows.  A row whose maximum has one bit pattern reduces
  to it under any formulation; a stack holding a NaN or both signed zeros
  falls back to ``max(axis=1)``, which reduces each C-contiguous row alone.

The speedup therefore comes from amortizing the python-level layer dispatch,
the patch unfold, pooling and activation work across lanes — not from wider
GEMMs, which is exactly what makes byte-identity achievable.

``refresh()`` restacks the weights after any in-place mutation of the
underlying networks (policy-gradient steps, federated averaging, fault
injection); the stacked copies are never written back.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.activations import ReLU, Softmax
from repro.nn.conv import Conv2d, MaxPool2d, _output_size, _window_max, im2col, unfold_patches
from repro.nn.layers import Flatten, Linear
from repro.nn.module import Module, Sequential

#: Layer types :class:`StackedPolicy` knows how to evaluate lane-stacked.
SUPPORTED_LAYERS = (Conv2d, MaxPool2d, ReLU, Flatten, Linear, Softmax)


def _layer_signature(module: Module) -> Tuple:
    """Hashable shape/hyperparameter summary used to check lane compatibility."""
    if isinstance(module, Conv2d):
        return (
            "conv",
            module.in_channels,
            module.out_channels,
            module.kernel_size,
            module.stride,
            module.padding,
            module.bias is not None,
        )
    if isinstance(module, MaxPool2d):
        return ("pool", module.kernel_size, module.stride)
    if isinstance(module, Linear):
        return ("linear", module.in_features, module.out_features, module.bias is not None)
    if isinstance(module, ReLU):
        return ("relu",)
    if isinstance(module, Flatten):
        return ("flatten",)
    if isinstance(module, Softmax):
        return ("softmax",)
    raise TypeError(
        f"unsupported layer for stacked forward: {type(module).__name__}; "
        f"supported: {[cls.__name__ for cls in SUPPORTED_LAYERS]}"
    )


class StackedPolicy:
    """Evaluate N same-topology :class:`Sequential` networks in lockstep.

    ``forward(observations, lanes)`` maps a ``(k, *obs_shape)`` stack of
    observations for lanes ``lanes`` (defaults to all lanes, in order) to the
    ``(k, out)`` stack of network outputs, where row ``j`` is bitwise equal to
    ``networks[lanes[j]].forward(observations[j][None])[0]``.
    """

    def __init__(self, networks: Sequence[Sequential]) -> None:
        self.networks: List[Sequential] = list(networks)
        if not self.networks:
            raise ValueError("StackedPolicy needs at least one network")
        first = self.networks[0]
        if not isinstance(first, Sequential):
            raise TypeError("StackedPolicy stacks Sequential networks")
        reference = [_layer_signature(module) for module in first.modules]
        for network in self.networks[1:]:
            if not isinstance(network, Sequential):
                raise TypeError("StackedPolicy stacks Sequential networks")
            signature = [_layer_signature(module) for module in network.modules]
            if signature != reference:
                raise ValueError(
                    "all stacked networks must share one topology; "
                    f"got {signature} vs {reference}"
                )
        self._weight_stacks: List[Optional[np.ndarray]] = []
        self._bias_stacks: List[Optional[np.ndarray]] = []
        self.refresh()

    @property
    def lane_count(self) -> int:
        """Number of stacked lanes (networks)."""
        return len(self.networks)

    def refresh(self) -> None:
        """Restack weights from the underlying networks.

        Call after any in-place weight mutation (policy-gradient step,
        ``load_state_dict``, fault injection) and before the next ``forward``.
        """
        weight_stacks: List[Optional[np.ndarray]] = []
        bias_stacks: List[Optional[np.ndarray]] = []
        for modules in zip(*(network.modules for network in self.networks)):
            head = modules[0]
            if isinstance(head, Conv2d):
                weight_stacks.append(
                    np.stack(
                        [m.weight.value.reshape(m.out_channels, -1) for m in modules]
                    )
                )
                bias_stacks.append(
                    np.stack([m.bias.value for m in modules])
                    if head.bias is not None
                    else None
                )
            elif isinstance(head, Linear):
                weight_stacks.append(np.stack([m.weight.value for m in modules]))
                bias_stacks.append(
                    np.stack([m.bias.value for m in modules])
                    if head.bias is not None
                    else None
                )
            else:
                weight_stacks.append(None)
                bias_stacks.append(None)
        self._weight_stacks = weight_stacks
        self._bias_stacks = bias_stacks

    def forward(
        self, observations: np.ndarray, lanes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Forward a stack of per-lane observations through the lane weights.

        ``observations`` has shape ``(k, *obs_shape)``; ``lanes`` selects which
        stacked network evaluates each row (all lanes, in order, when omitted).
        """
        x = np.asarray(observations, dtype=np.float64)
        if lanes is None:
            if x.shape[0] != self.lane_count:
                raise ValueError(
                    f"expected {self.lane_count} observation rows, got {x.shape[0]}"
                )
            gather = slice(None)
        else:
            lanes = np.asarray(lanes, dtype=np.int64)
            if lanes.shape != (x.shape[0],):
                raise ValueError("lanes must align with the observation rows")
            gather = lanes
        for index, module in enumerate(self.networks[0].modules):
            weight = self._weight_stacks[index]
            bias = self._bias_stacks[index]
            if weight is not None:
                weight = weight[gather]
            if bias is not None:
                bias = bias[gather]
            if isinstance(module, Conv2d):
                x = self._conv_forward(module, x, weight, bias)
            elif isinstance(module, Linear):
                # Each lane's serial (1, F) @ (F, H) product on its own weights.
                x = np.matmul(x[:, None, :], weight)[:, 0]
                if bias is not None:
                    x = x + bias
            elif isinstance(module, MaxPool2d):
                x = self._pool_forward(module, x)
            elif isinstance(module, ReLU):
                x = x * (x > 0)
            elif isinstance(module, Flatten):
                x = x.reshape(x.shape[0], -1)
            elif isinstance(module, Softmax):
                shifted = x - x.max(axis=1, keepdims=True)
                exps = np.exp(shifted)
                x = exps / exps.sum(axis=1, keepdims=True)
            else:  # pragma: no cover - construction already rejects these
                raise TypeError(f"unsupported layer {type(module).__name__}")
        return x

    @staticmethod
    def _conv_forward(
        module: Conv2d, x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray]
    ) -> np.ndarray:
        """Stacked conv: one unfold, then one matmul making every lane's serial GEMM."""
        kernel = module.kernel_size
        # One strided copy unfolds every lane at once.
        columns = unfold_patches(x, kernel, kernel, module.stride, module.padding)
        lanes, channels, _, _, out_h, out_w = columns.shape
        # A view: lane i's (out_h * out_w, features) block has the serial
        # batch-of-one im2col strides, (8, out_h * out_w * 8), so BLAS gets the
        # serial layout and so the serial reduction order.
        patches = columns.transpose(0, 4, 5, 1, 2, 3).reshape(
            lanes, out_h * out_w, channels * kernel * kernel
        )
        out = np.matmul(patches, weight.transpose(0, 2, 1))
        if bias is not None:
            out += bias[:, None, :]
        return out.reshape(lanes, out_h, out_w, module.out_channels).transpose(0, 3, 1, 2)

    @staticmethod
    def _pool_forward(module: MaxPool2d, x: np.ndarray) -> np.ndarray:
        """Max pooling over the lane stack, mirroring the serial im2col path."""
        lanes, channels, height, width = x.shape
        out_h = _output_size(height, module.kernel_size, module.stride, 0)
        out_w = _output_size(width, module.kernel_size, module.stride, 0)
        columns, _ = im2col(
            x.reshape(lanes * channels, 1, height, width),
            module.kernel_size,
            module.kernel_size,
            module.stride,
            0,
        )
        maxima, _ = _window_max(columns)
        return maxima.reshape(lanes, channels, out_h, out_w)


__all__ = ["StackedPolicy", "SUPPORTED_LAYERS"]
