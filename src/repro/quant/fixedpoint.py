"""Signed fixed-point Q(sign, integer, fraction) codecs.

The drone data-type study in the paper compares Q(1,4,11), Q(1,7,8) and
Q(1,10,5): all 16-bit signed formats that trade integer range for fractional
precision.  A format with an unnecessarily large integer range (Q(1,10,5))
yields large value deviations when high-order bits flip, while a format whose
range just covers the parameter distribution (Q(1,4,11)) is more resilient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.bitops import signed_dtype_for


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed two's-complement fixed-point format.

    ``integer_bits`` excludes the sign bit, so the total width is
    ``1 + integer_bits + fraction_bits``.
    """

    integer_bits: int
    fraction_bits: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.integer_bits < 0 or self.fraction_bits < 0:
            raise ValueError("integer_bits and fraction_bits must be non-negative")
        if self.total_bits > 64:
            raise ValueError(f"total width {self.total_bits} exceeds 64 bits")
        if not self.name:
            object.__setattr__(
                self, "name", f"Q(1,{self.integer_bits},{self.fraction_bits})"
            )

    @property
    def total_bits(self) -> int:
        return 1 + self.integer_bits + self.fraction_bits

    @property
    def scale(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** (-self.fraction_bits)

    @property
    def max_value(self) -> float:
        return (2 ** (self.total_bits - 1) - 1) * self.scale

    @property
    def min_value(self) -> float:
        return -(2 ** (self.total_bits - 1)) * self.scale

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Quantize float values to integer code words (saturating)."""
        values = np.asarray(values, dtype=np.float64)
        scaled = np.round(values / self.scale)
        low = -(2 ** (self.total_bits - 1))
        high = 2 ** (self.total_bits - 1) - 1
        clipped = np.clip(scaled, low, high)
        return clipped.astype(signed_dtype_for(self.total_bits))

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Convert integer code words back to float values."""
        codes = np.asarray(codes)
        signed = self._to_signed(codes)
        return signed.astype(np.float64) * self.scale

    def _to_signed(self, codes: np.ndarray) -> np.ndarray:
        """Interpret raw code words as two's complement of ``total_bits``."""
        width = self.total_bits
        unsigned = codes.astype(np.int64) & ((1 << width) - 1)
        sign_bit = 1 << (width - 1)
        return np.where(unsigned >= sign_bit, unsigned - (1 << width), unsigned)

    def roundtrip(self, values: np.ndarray) -> np.ndarray:
        """Quantize then dequantize — the representable approximation."""
        return self.decode(self.encode(values))

    def quantization_error(self, values: np.ndarray) -> float:
        """Mean absolute quantization error over ``values``."""
        values = np.asarray(values, dtype=np.float64)
        return float(np.abs(values - self.roundtrip(values)).mean())

    def __str__(self) -> str:
        return self.name


# The three formats from the paper's data-type study (16-bit total width).
Q1_4_11 = FixedPointFormat(integer_bits=4, fraction_bits=11)
Q1_7_8 = FixedPointFormat(integer_bits=7, fraction_bits=8)
Q1_10_5 = FixedPointFormat(integer_bits=10, fraction_bits=5)

# 8-bit formats used for the GridWorld policy (the paper quantizes it to
# 8 bits); Q(1,2,5) covers the ±1.3 weight range with headroom, Q(1,3,4)
# trades precision for extra range.
Q1_2_5 = FixedPointFormat(integer_bits=2, fraction_bits=5)
Q1_3_4 = FixedPointFormat(integer_bits=3, fraction_bits=4)
