"""Tests for convolution and pooling layers."""

import numpy as np
import pytest

from repro.nn import Conv2d, MaxPool2d
from repro.nn.conv import col2im, im2col, unfold_patches


class TestIm2Col:
    def test_output_shape(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        cols, (oh, ow) = im2col(x, 3, 3, stride=1, padding=1)
        assert (oh, ow) == (8, 8)
        assert cols.shape == (2 * 8 * 8, 3 * 3 * 3)

    def test_col2im_adjoint_of_im2col(self):
        # <im2col(x), y> == <x, col2im(y)> — the fold/unfold pair must be adjoint.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 5, 5))
        cols, _ = im2col(x, 3, 3, stride=2, padding=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 3, stride=2, padding=1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((1, 1, 2, 2)), 5, 5, stride=1, padding=0)


class TestConv2d:
    def test_output_shape_with_padding(self):
        conv = Conv2d(3, 8, kernel_size=3, padding=1, rng=0)
        out = conv.forward(np.zeros((2, 3, 10, 12)))
        assert out.shape == (2, 8, 10, 12)

    def test_output_shape_with_stride(self):
        conv = Conv2d(1, 4, kernel_size=3, stride=2, rng=0)
        out = conv.forward(np.zeros((1, 1, 9, 9)))
        assert out.shape == (1, 4, 4, 4)

    def test_known_convolution(self):
        conv = Conv2d(1, 1, kernel_size=2, bias=False, rng=0)
        conv.weight.copy_(np.ones((1, 1, 2, 2)))
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = conv.forward(x)
        np.testing.assert_allclose(out[0, 0], [[8.0, 12.0], [20.0, 24.0]])

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, rng=0).forward(np.zeros((1, 2, 8, 8)))

    def test_requires_4d(self):
        with pytest.raises(ValueError):
            Conv2d(1, 1, 3, rng=0).forward(np.zeros((8, 8)))

    def test_backward_shapes(self):
        conv = Conv2d(2, 5, kernel_size=3, padding=1, rng=0)
        x = np.random.default_rng(0).normal(size=(3, 2, 6, 6))
        out = conv.forward(x)
        grad_in = conv.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        assert conv.weight.grad.shape == conv.weight.value.shape
        assert conv.bias.grad.shape == (5,)

    def test_gradient_numerically(self):
        conv = Conv2d(1, 2, kernel_size=2, rng=0)
        x = np.random.default_rng(2).normal(size=(1, 1, 4, 4))
        out = conv.forward(x)
        upstream = np.random.default_rng(3).normal(size=out.shape)
        conv.zero_grad()
        conv.forward(x)
        conv.backward(upstream)
        analytic = conv.weight.grad.copy()
        eps = 1e-6
        flat_index = 3
        unraveled = np.unravel_index(flat_index, conv.weight.value.shape)
        original = conv.weight.value[unraveled]
        conv.weight.value[unraveled] = original + eps
        plus = float((conv.forward(x) * upstream).sum())
        conv.weight.value[unraveled] = original - eps
        minus = float((conv.forward(x) * upstream).sum())
        conv.weight.value[unraveled] = original
        numeric = (plus - minus) / (2 * eps)
        assert analytic[unraveled] == pytest.approx(numeric, rel=1e-4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Conv2d(0, 1, 3)
        with pytest.raises(ValueError):
            Conv2d(1, 1, 3, stride=0)


class TestMaxPool2d:
    def test_forward_known_values(self):
        pool = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        np.testing.assert_allclose(pool.forward(x), [[[[4.0]]]])

    def test_backward_routes_to_argmax(self):
        pool = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        pool.forward(x)
        grad = pool.backward(np.array([[[[1.0]]]]))
        np.testing.assert_allclose(grad, [[[[0.0, 0.0], [0.0, 1.0]]]])

    def test_output_shape(self):
        pool = MaxPool2d(2)
        assert pool.forward(np.zeros((2, 3, 8, 6))).shape == (2, 3, 4, 3)

    def test_requires_4d(self):
        with pytest.raises(ValueError):
            MaxPool2d(2).forward(np.zeros((3, 8, 8)))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            MaxPool2d(2).backward(np.zeros((1, 1, 1, 1)))

    def test_stride_must_be_positive(self):
        for stride in (0, -1):
            with pytest.raises(ValueError, match="stride"):
                MaxPool2d(2, stride=stride)
        assert MaxPool2d(3).stride == 3
        assert MaxPool2d(3, stride=1).stride == 1


# --------------------------------------------------------------------------
# Kernel oracle: the np.pad + slice-loop unfold, im2col, col2im and the
# max/argmax pooling as they were before the strided unfold, kept as the
# reference the library kernels must match byte for byte, and stride for
# stride (BLAS picks its GEMM path from operand strides).
def _reference_unfold_patches(inputs, kernel_h, kernel_w, stride, padding):
    batch, channels, height, width = inputs.shape
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1
    padded = np.pad(
        inputs, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
    )
    columns = np.empty((batch, channels, kernel_h, kernel_w, out_h, out_w), dtype=inputs.dtype)
    for row in range(kernel_h):
        row_end = row + stride * out_h
        for col in range(kernel_w):
            col_end = col + stride * out_w
            columns[:, :, row, col, :, :] = padded[:, :, row:row_end:stride, col:col_end:stride]
    return columns


def _reference_im2col(inputs, kernel_h, kernel_w, stride, padding):
    columns = _reference_unfold_patches(inputs, kernel_h, kernel_w, stride, padding)
    batch, channels, _, _, out_h, out_w = columns.shape
    columns = columns.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, channels * kernel_h * kernel_w
    )
    return columns, (out_h, out_w)


def _reference_col2im(columns, input_shape, kernel_h, kernel_w, stride, padding):
    batch, channels, height, width = input_shape
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1
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


def _reference_pool(inputs, kernel, stride, grad_output):
    """Seed ``MaxPool2d`` forward output, argmax and backward gradient."""
    batch, channels, height, width = inputs.shape
    columns, (out_h, out_w) = _reference_im2col(
        inputs.reshape(batch * channels, 1, height, width), kernel, kernel, stride, 0
    )
    argmax = columns.argmax(axis=1)
    output = columns.max(axis=1).reshape(batch, channels, out_h, out_w)
    grad_columns = np.zeros((columns.shape[0], kernel * kernel))
    grad_columns[np.arange(columns.shape[0]), argmax] = grad_output.reshape(-1)
    grad_input = _reference_col2im(
        grad_columns, (batch * channels, 1, height, width), kernel, kernel, stride, 0
    )
    return output, argmax, grad_input.reshape(inputs.shape)


def _nan(sign, payload=0):
    bits = (0xFFF8000000000000 if sign < 0 else 0x7FF8000000000000) | payload
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


# Bit flips turn weights and activations into every one of these.
FAULT_VALUES = np.array(
    [0.0, -0.0, np.inf, -np.inf, _nan(1), _nan(-1), _nan(1, 0x123), _nan(-1, 0x456)]
)


def _kernel_inputs(shape, kind, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "faults":
        values = rng.normal(size=shape)
        hit = rng.random(shape) < 0.2
        values[hit] = rng.choice(FAULT_VALUES, size=int(hit.sum()))
        return values
    # "ties": few distinct values, so pool windows tie, both signed zeros included.
    return rng.choice(np.array([-1.0, -0.0, 0.0, 1.0]), size=shape)


KERNEL_BATCHES = [1, 22]
KERNEL_SIZES = [(8, 16), (9, 16), (18, 32), (5, 7)]
KERNEL_KINDS = ["normal", "faults", "ties"]


class TestKernelOracle:
    @pytest.mark.parametrize("batch", KERNEL_BATCHES)
    @pytest.mark.parametrize("size", KERNEL_SIZES)
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_unfold_and_fold_match_reference(self, batch, size, stride, padding, kind):
        inputs = _kernel_inputs((batch, 3, *size), kind)
        expected = _reference_unfold_patches(inputs, 3, 3, stride, padding)
        patches = unfold_patches(inputs, 3, 3, stride, padding)
        assert patches.strides == expected.strides and patches.flags.writeable
        assert patches.tobytes() == expected.tobytes()
        columns, out_size = im2col(inputs, 3, 3, stride, padding)
        expected_columns, expected_size = _reference_im2col(inputs, 3, 3, stride, padding)
        assert out_size == expected_size
        assert columns.shape == expected_columns.shape
        assert columns.strides == expected_columns.strides
        assert columns.tobytes() == expected_columns.tobytes()
        grads = _kernel_inputs(columns.shape, kind, seed=1)
        with np.errstate(invalid="ignore"):  # inf + -inf overlaps fold to NaN
            folded = col2im(grads, inputs.shape, 3, 3, stride, padding)
            expected_folded = _reference_col2im(grads, inputs.shape, 3, 3, stride, padding)
        assert folded.strides == expected_folded.strides
        assert folded.tobytes() == expected_folded.tobytes()

    def test_unfold_reads_non_contiguous_inputs(self):
        inputs = _kernel_inputs((3, 2, 16, 9), "faults").transpose(0, 1, 3, 2)
        for padding in (0, 1):
            assert unfold_patches(inputs, 3, 3, 2, padding).tobytes() == (
                _reference_unfold_patches(inputs, 3, 3, 2, padding).tobytes()
            )

    @pytest.mark.parametrize("batch", KERNEL_BATCHES)
    @pytest.mark.parametrize("size", KERNEL_SIZES)
    @pytest.mark.parametrize("window", [(2, None), (2, 1), (3, 2)])
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_max_pool_matches_reference(self, batch, size, window, kind):
        kernel, stride = window
        inputs = _kernel_inputs((batch, 4, *size), kind)
        pool = MaxPool2d(kernel, stride=stride)
        output = pool.forward(inputs)
        grad_output = _kernel_inputs(output.shape, "normal", seed=2)
        expected, argmax, grad_input = _reference_pool(inputs, kernel, pool.stride, grad_output)
        assert output.shape == expected.shape
        assert output.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(pool._cached_argmax, argmax)
        grad = pool.backward(grad_output)
        assert grad.strides == grad_input.strides
        assert grad.tobytes() == grad_input.tobytes()

    @pytest.mark.parametrize("channels", [1, 2])
    def test_max_pool_matches_reference_on_every_special_window(self, channels):
        # Every 2x2 window over {NaN, -NaN, +-inf, +-0, +-1, 2}: 9**4 windows
        # laid side by side, window i covering columns 2i and 2i + 1.  One
        # channel pools a strided im2col view, two a C-contiguous copy.
        values = np.array(
            [_nan(1), _nan(-1), np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.0]
        )
        windows = np.array(np.meshgrid(*[values] * 4, indexing="ij")).reshape(4, -1).T
        image = windows.reshape(-1, 2, 2).transpose(1, 0, 2).reshape(1, 1, 2, -1)
        inputs = np.repeat(image, channels, axis=1)
        pool = MaxPool2d(2)
        output = pool.forward(inputs)
        expected, argmax, _ = _reference_pool(inputs, 2, 2, np.zeros(output.shape))
        assert output.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(pool._cached_argmax, argmax)
