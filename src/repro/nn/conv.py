"""Convolution and pooling layers (im2col implementation).

The drone navigation policy in the paper uses three convolution layers and two
fully connected layers over front-camera images.  These layers implement the
forward and backward passes with an im2col/col2im formulation, which keeps the
hot loops inside numpy matrix products.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.init import he_uniform, zeros_init
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import as_rng


def _output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size for input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def unfold_patches(
    inputs: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> np.ndarray:
    """Unfold image patches into a ``(batch, channels, kernel_h, kernel_w, out_h, out_w)`` buffer.

    ``inputs`` has shape ``(batch, channels, height, width)``.  The serial
    :func:`im2col` and the lane-stacked conv of :mod:`repro.nn.batched` both
    unfold through here and only differ in how they reshape the buffer into
    GEMM operands.

    The buffer is one C-contiguous copy of a strided window view over the
    input (over a zero-filled padded copy when ``padding > 0``).  It must
    stay that contiguous copy: the GEMM operands reshaped from it keep its
    strides, and BLAS picks its kernel, and so its reduction order, from
    operand strides.  For a batch of one, ``im2col``'s reshape of this buffer
    is a ``(8, out_h * out_w * 8)``-strided view, not a copy.
    """
    batch, channels, height, width = inputs.shape
    out_h = _output_size(height, kernel_h, stride, padding)
    out_w = _output_size(width, kernel_w, stride, padding)
    if padding:
        padded = np.zeros(
            (batch, channels, height + 2 * padding, width + 2 * padding), dtype=inputs.dtype
        )
        padded[:, :, padding:-padding, padding:-padding] = inputs
    else:
        padded = np.ascontiguousarray(inputs)
    batch_step, channel_step, row_step, col_step = padded.strides
    # The window view over ``padded``'s memory (``as_strided`` builds the same
    # view at several times the cost).
    windows = np.ndarray(
        (batch, channels, kernel_h, kernel_w, out_h, out_w),
        dtype=padded.dtype,
        buffer=padded,
        strides=(
            batch_step, channel_step, row_step, col_step, stride * row_step, stride * col_step
        ),
    )
    return windows.copy()


def im2col(
    inputs: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold image patches into columns.

    ``inputs`` has shape ``(batch, channels, height, width)``.  Returns an
    array of shape ``(batch * out_h * out_w, channels * kernel_h * kernel_w)``
    plus the output spatial size.
    """
    columns = unfold_patches(inputs, kernel_h, kernel_w, stride, padding)
    batch, channels, _, _, out_h, out_w = columns.shape
    columns = columns.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, channels * kernel_h * kernel_w
    )
    return columns, (out_h, out_w)


def col2im(
    columns: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns back into an image, summing overlapping contributions."""
    batch, channels, height, width = input_shape
    out_h = _output_size(height, kernel_h, stride, padding)
    out_w = _output_size(width, kernel_w, stride, padding)
    columns = columns.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w).transpose(
        0, 3, 4, 5, 1, 2
    )
    padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding))
    for row in range(kernel_h):
        row_end = row + stride * out_h
        for col in range(kernel_w):
            col_end = col + stride * out_w
            padded[:, :, row:row_end:stride, col:col_end:stride] += columns[:, :, row, col, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


#: The bit pattern of ``-0.0`` read as an int64: the least int64.
_NEGATIVE_ZERO_BITS = np.iinfo(np.int64).min


def _window_max(columns: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Row maxima of an :func:`im2col` buffer, with the bytes of ``columns.max(axis=1)``.

    ``max(axis=1)`` runs one reduction loop per short row, so the rows are
    copied window-major, into a ``(window, rows)`` buffer, and reduced
    elementwise instead.  Both formulations return an element equal to the
    row maximum, and that fixes its bytes unless the row holds a NaN or both
    signed zeros: which NaN or which zero comes back depends on numpy's SIMD
    path and on the buffer's layout (a leading ``-nan`` reduces to ``+nan``
    in a C-contiguous buffer).  If any row does, the maxima come from
    ``max(axis=1)`` itself.  Returns the maxima and the window-major buffer,
    or ``None`` in its place when the maxima come from ``max(axis=1)``.
    """
    windows = columns.T.copy()
    maxima = np.maximum.reduce(windows)
    bits = windows.view(np.int64)
    # A row holds -0.0 iff its least int64 pattern is -0.0's, and +0.0 iff
    # its least uint64 pattern is 0.
    ambiguous = np.minimum.reduce(bits) == _NEGATIVE_ZERO_BITS
    ambiguous &= np.minimum.reduce(bits.view(np.uint64)) == 0
    ambiguous |= np.isnan(maxima)
    if ambiguous.any():
        return columns.max(axis=1), None
    return maxima, windows


class Conv2d(Module):
    """2D convolution over ``(batch, channels, height, width)`` inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng=None,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0 or kernel_size <= 0:
            raise ValueError("channels and kernel_size must be positive")
        if stride <= 0 or padding < 0:
            raise ValueError("stride must be positive and padding non-negative")
        rng = as_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        weight_shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(he_uniform(weight_shape, rng=rng), name="weight")
        self.bias: Optional[Parameter] = (
            Parameter(zeros_init((out_channels,)), name="bias") if bias else None
        )
        self._cached_columns: Optional[np.ndarray] = None
        self._cached_input_shape: Optional[Tuple[int, int, int, int]] = None
        self._cached_output_size: Optional[Tuple[int, int]] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4:
            raise ValueError(f"Conv2d expects 4D input, got shape {inputs.shape}")
        if inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {inputs.shape[1]}"
            )
        columns, (out_h, out_w) = im2col(
            inputs, self.kernel_size, self.kernel_size, self.stride, self.padding
        )
        self._cached_columns = columns
        self._cached_input_shape = inputs.shape
        self._cached_output_size = (out_h, out_w)
        weight_matrix = self.weight.value.reshape(self.out_channels, -1)
        output = columns @ weight_matrix.T
        if self.bias is not None:
            output = output + self.bias.value
        batch = inputs.shape[0]
        return output.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        if self._cached_columns is None or self._cached_input_shape is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch = self._cached_input_shape[0]
        out_h, out_w = self._cached_output_size
        grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(
            batch * out_h * out_w, self.out_channels
        )
        grad_weight = grad_matrix.T @ self._cached_columns
        self.weight.accumulate_grad(grad_weight.reshape(self.weight.value.shape))
        if self.bias is not None:
            self.bias.accumulate_grad(grad_matrix.sum(axis=0))
        if not input_grad:
            return None
        grad_columns = grad_matrix @ self.weight.value.reshape(self.out_channels, -1)
        return col2im(
            grad_columns,
            self._cached_input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )

    def parameters(self) -> List[Parameter]:
        if self.bias is None:
            return [self.weight]
        return [self.weight, self.bias]


class MaxPool2d(Module):
    """Max pooling with a square window."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        if stride is not None and stride <= 0:
            raise ValueError("stride must be positive")
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride
        self._cached_input_shape: Optional[Tuple[int, int, int, int]] = None
        self._cached_argmax: Optional[np.ndarray] = None
        self._cached_output_size: Optional[Tuple[int, int]] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4:
            raise ValueError(f"MaxPool2d expects 4D input, got shape {inputs.shape}")
        batch, channels, height, width = inputs.shape
        out_h = _output_size(height, self.kernel_size, self.stride, 0)
        out_w = _output_size(width, self.kernel_size, self.stride, 0)
        columns, _ = im2col(
            inputs.reshape(batch * channels, 1, height, width),
            self.kernel_size,
            self.kernel_size,
            self.stride,
            0,
        )
        self._cached_input_shape = inputs.shape
        self._cached_output_size = (out_h, out_w)
        output, windows = _window_max(columns)
        if windows is None:
            argmax = columns.argmax(axis=1)
        else:
            # Without NaNs ``argmax`` is the first window index equal to the
            # maximum.  Walking the window backwards, the index resets to 0
            # at a hit and otherwise counts one more step to the next hit.
            argmax = np.zeros(output.shape, dtype=np.intp)
            for index in range(len(windows) - 2, -1, -1):
                argmax += 1
                argmax *= windows[index] != output
        self._cached_argmax = argmax
        return output.reshape(batch, channels, out_h, out_w)

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        if self._cached_argmax is None or self._cached_input_shape is None:
            raise RuntimeError("backward called before forward")
        if not input_grad:
            return None
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch, channels, height, width = self._cached_input_shape
        out_h, out_w = self._cached_output_size
        window = self.kernel_size * self.kernel_size
        grad_columns = np.zeros((batch * channels * out_h * out_w, window))
        flat_grad = grad_output.reshape(-1)
        grad_columns[np.arange(grad_columns.shape[0]), self._cached_argmax] = flat_grad
        grad_input = col2im(
            grad_columns,
            (batch * channels, 1, height, width),
            self.kernel_size,
            self.kernel_size,
            self.stride,
            0,
        )
        return grad_input.reshape(batch, channels, height, width)
