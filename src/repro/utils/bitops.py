"""Bit-level helpers on integer numpy arrays.

The fault models in :mod:`repro.faults` operate on the *integer code words* of
quantized tensors (int8 affine quantization or Q(sign, int, frac) fixed point).
These helpers implement the low-level bit manipulation: flipping, setting and
counting bits across arbitrarily shaped arrays, always on an explicit unsigned
view so that sign bits behave like any other storage bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_UNSIGNED_FOR_WIDTH = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}
_SIGNED_FOR_WIDTH = {8: np.int8, 16: np.int16, 32: np.int32, 64: np.int64}


def unsigned_dtype_for(bit_width: int) -> np.dtype:
    """Smallest unsigned dtype that can store ``bit_width`` bits."""
    for width in (8, 16, 32, 64):
        if bit_width <= width:
            return np.dtype(_UNSIGNED_FOR_WIDTH[width])
    raise ValueError(f"bit widths above 64 are not supported, got {bit_width}")


def signed_dtype_for(bit_width: int) -> np.dtype:
    """Smallest signed dtype that can store ``bit_width`` bits."""
    for width in (8, 16, 32, 64):
        if bit_width <= width:
            return np.dtype(_SIGNED_FOR_WIDTH[width])
    raise ValueError(f"bit widths above 64 are not supported, got {bit_width}")


def _validate_positions(bit_positions: np.ndarray, bit_width: int) -> np.ndarray:
    positions = np.asarray(bit_positions, dtype=np.int64)
    if positions.size and (positions.min() < 0 or positions.max() >= bit_width):
        raise ValueError(
            f"bit positions must lie in [0, {bit_width}), got range "
            f"[{positions.min()}, {positions.max()}]"
        )
    return positions


def _checked_events(
    codes: np.ndarray,
    element_indices: np.ndarray,
    bit_positions: np.ndarray,
    bit_width: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate one batch of (element, bit) events against ``codes``.

    Returns the flattened unsigned working copy of ``codes`` plus the
    validated element indices and per-event single-bit masks.
    """
    positions = _validate_positions(bit_positions, bit_width)
    elements = np.asarray(element_indices, dtype=np.int64)
    if elements.shape != positions.shape:
        raise ValueError("element_indices and bit_positions must have the same shape")
    unsigned = unsigned_dtype_for(bit_width)
    flat = np.ascontiguousarray(codes).reshape(-1).astype(unsigned, copy=True)
    if elements.size and (elements.min() < 0 or elements.max() >= flat.size):
        raise IndexError("element index out of range for the given tensor")
    masks = (np.ones_like(positions, dtype=np.uint64) << positions.astype(np.uint64)).astype(
        unsigned
    )
    return flat, elements, masks


def flip_bits(
    codes: np.ndarray,
    element_indices: np.ndarray,
    bit_positions: np.ndarray,
    bit_width: int,
) -> np.ndarray:
    """Flip ``bit_positions`` of the flattened ``codes`` at ``element_indices``.

    ``codes`` is an integer array of code words; the function returns a new
    array of the same dtype and shape.  Multiple flips may target the same
    element (and even the same bit, in which case they cancel out, matching
    physical transient-fault behaviour of an even number of upsets).
    """
    flat, elements, masks = _checked_events(codes, element_indices, bit_positions, bit_width)
    if elements.size:
        # One batched XOR-accumulate over the whole event set; repeated
        # (element, bit) events cancel pairwise, as in hardware.
        np.bitwise_xor.at(flat, elements, masks)
    return flat.reshape(np.asarray(codes).shape).astype(codes.dtype, copy=False)


def set_bits(
    codes: np.ndarray,
    element_indices: np.ndarray,
    bit_positions: np.ndarray,
    bit_width: int,
    value: int,
) -> np.ndarray:
    """Force bits to ``value`` (0 or 1) — the stuck-at fault primitive."""
    if value not in (0, 1):
        raise ValueError(f"stuck-at value must be 0 or 1, got {value}")
    flat, elements, masks = _checked_events(codes, element_indices, bit_positions, bit_width)
    if elements.size:
        if value == 1:
            np.bitwise_or.at(flat, elements, masks)
        else:
            np.bitwise_and.at(flat, elements, (~masks).astype(flat.dtype))
    return flat.reshape(np.asarray(codes).shape).astype(codes.dtype, copy=False)


def count_ones(codes: np.ndarray, bit_width: int) -> int:
    """Total number of 1 bits in the low ``bit_width`` bits of every element."""
    unsigned_dtype_for(bit_width)  # reject widths above 64
    flat = np.ascontiguousarray(codes).reshape(-1).astype(np.uint64)
    mask = np.uint64((1 << bit_width) - 1) if bit_width < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    flat = flat & mask
    if flat.size == 0:
        return 0
    # Hardware popcount over the masked code words in one vectorized pass.
    return int(np.bitwise_count(flat).sum(dtype=np.int64))


def random_bit_positions(
    rng: np.random.Generator, count: int, bit_width: int
) -> np.ndarray:
    """Uniformly random bit positions in ``[0, bit_width)``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return rng.integers(0, bit_width, size=count, dtype=np.int64)


def faults_for_ber(total_bits: int, bit_error_rate: float, rng: np.random.Generator) -> int:
    """Number of bit faults for a given BER over ``total_bits`` storage bits.

    The paper reports fault counts as ``round(BER * bits)``; we sample a
    binomial to model the stochastic arrival of upsets and fall back to the
    deterministic rounding when the expected count is large (>30) where the
    binomial is sharply concentrated anyway.
    """
    if not 0.0 <= bit_error_rate <= 1.0:
        raise ValueError(f"bit_error_rate must be within [0, 1], got {bit_error_rate}")
    if total_bits < 0:
        raise ValueError(f"total_bits must be non-negative, got {total_bits}")
    expected = total_bits * bit_error_rate
    if expected == 0:
        return 0
    if expected > 30:
        return int(round(expected))
    return int(rng.binomial(total_bits, bit_error_rate))
