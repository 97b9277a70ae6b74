"""Bit-level statistics of quantized policies (paper Fig. 3d).

The paper explains the asymmetry between 0→1 and 1→0 flips by the policy's
narrow weight range: the quantized representation contains far more 0 bits
than 1 bits, and a 0→1 flip of a high-order bit creates an outlier.  These
helpers compute the weight range and the 0/1 bit breakdown reported in
Fig. 3d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from repro.quant.datatypes import DataType, resolve_datatype
from repro.utils.bitops import one_bit_fraction


@dataclass(frozen=True)
class BitBreakdown:
    """Fraction of 0 and 1 storage bits plus the float value range."""

    zero_bit_fraction: float
    one_bit_fraction: float
    min_value: float
    max_value: float
    total_bits: int

    def as_dict(self) -> dict:
        return {
            "zero_bit_fraction": self.zero_bit_fraction,
            "one_bit_fraction": self.one_bit_fraction,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "total_bits": self.total_bits,
        }


def bit_breakdown(
    state: Dict[str, np.ndarray], datatype: Union[str, DataType] = "int8"
) -> BitBreakdown:
    """0/1 bit breakdown of a policy state dict under ``datatype`` storage."""
    datatype = resolve_datatype(datatype)
    if not state:
        raise ValueError("state dict is empty")
    flat = np.concatenate([np.asarray(v, dtype=np.float64).reshape(-1) for v in state.values()])
    codes, _context = datatype.encode(flat)
    ones = one_bit_fraction(codes, datatype.bit_width)
    return BitBreakdown(
        zero_bit_fraction=1.0 - ones,
        one_bit_fraction=ones,
        min_value=float(flat.min()),
        max_value=float(flat.max()),
        total_bits=int(flat.size * datatype.bit_width),
    )
