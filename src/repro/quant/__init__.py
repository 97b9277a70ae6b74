"""Quantization substrate: fixed-point and int8 affine codecs.

The paper studies edge deployments where policies are quantized to 8 bits
(GridWorld) or represented with signed fixed-point formats Q(sign, integer,
fraction) (the drone data-type study).  Fault injection always happens on the
integer *code words* produced by these codecs, so a bit flip in this package's
output is exactly a bit flip in the modelled memory or communication channel.
"""

from repro.quant.fixedpoint import FixedPointFormat, Q1_2_5, Q1_3_4, Q1_4_11, Q1_7_8, Q1_10_5
from repro.quant.int8 import Int8AffineCodec, QuantizedTensor
from repro.quant.datatypes import DataType, resolve_datatype, DATATYPE_REGISTRY

__all__ = [
    "FixedPointFormat",
    "Q1_2_5",
    "Q1_3_4",
    "Q1_4_11",
    "Q1_7_8",
    "Q1_10_5",
    "Int8AffineCodec",
    "QuantizedTensor",
    "DataType",
    "resolve_datatype",
    "DATATYPE_REGISTRY",
]
