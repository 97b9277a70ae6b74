"""Symmetric int8 affine quantization.

GridWorld policies in the paper are quantized to 8 bits without loss of
performance.  The codec here is symmetric (zero-point 0) per-tensor
quantization: ``code = clip(round(value / scale), -128, 127)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The largest scale at which code word -128 still decodes finite.
_LARGEST_SCALE = float(np.finfo(np.float64).max) / 128.0


@dataclass
class QuantizedTensor:
    """An int8 tensor plus the scale needed to reconstruct float values."""

    codes: np.ndarray
    scale: float

    def dequantize(self) -> np.ndarray:
        return self.codes.astype(np.float64) * self.scale

    @property
    def shape(self) -> tuple:
        return self.codes.shape

    @property
    def bit_width(self) -> int:
        return 8


class Int8AffineCodec:
    """Symmetric per-tensor int8 quantizer."""

    bit_width = 8

    def __init__(self, clip_percentile: float = 100.0) -> None:
        if not 0.0 < clip_percentile <= 100.0:
            raise ValueError(f"clip_percentile must be in (0, 100], got {clip_percentile}")
        self.clip_percentile = clip_percentile

    def compute_scale(self, values: np.ndarray) -> float:
        """Scale mapping the value range onto [-127, 127]."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return 1.0
        if self.clip_percentile >= 100.0:
            max_abs = float(np.abs(values).max())
        else:
            max_abs = float(np.percentile(np.abs(values), self.clip_percentile))
        if max_abs == 0.0:
            return 1.0
        # Above 127/128 of the largest float, -128 * max_abs / 127 overflows.
        scale = min(max_abs / 127.0, _LARGEST_SCALE)
        if scale == 0.0:
            # max_abs is so small (subnormal) that dividing by 127 underflows
            # to zero; the smallest positive float keeps quantize() usable and
            # still reconstructs these values within half a code step.
            scale = float(np.nextafter(0.0, 1.0))
        return scale

    def quantize(self, values: np.ndarray, scale: float | None = None) -> QuantizedTensor:
        values = np.asarray(values, dtype=np.float64)
        scale = self.compute_scale(values) if scale is None else float(scale)
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        codes = np.clip(np.round(values / scale), -128, 127).astype(np.int8)
        return QuantizedTensor(codes=codes, scale=scale)

    def dequantize(self, quantized: QuantizedTensor) -> np.ndarray:
        return quantized.dequantize()

    def roundtrip(self, values: np.ndarray, scale: float | None = None) -> np.ndarray:
        """Quantize then dequantize ``values``."""
        return self.quantize(values, scale=scale).dequantize()

    def quantization_error(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=np.float64)
        return float(np.abs(values - self.roundtrip(values)).mean())
