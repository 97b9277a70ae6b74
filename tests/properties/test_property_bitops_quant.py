"""Property-based tests for the bit-level and quantization substrates."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant import Int8AffineCodec, resolve_datatype
from repro.quant.fixedpoint import FixedPointFormat
from repro.utils.bitops import count_ones, flip_bits, set_bits

SMALL_FLOATS = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 64),
    elements=st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=50, deadline=None)
@given(
    values=hnp.arrays(dtype=np.int64, shape=st.integers(1, 32),
                      elements=st.integers(-128, 127)),
    data=st.data(),
)
def test_flip_twice_is_identity(values, data):
    codes = values.astype(np.int8)
    element = data.draw(st.integers(0, codes.size - 1))
    bit = data.draw(st.integers(0, 7))
    once = flip_bits(codes, np.array([element]), np.array([bit]), 8)
    twice = flip_bits(once, np.array([element]), np.array([bit]), 8)
    np.testing.assert_array_equal(twice, codes)


@settings(max_examples=50, deadline=None)
@given(
    values=hnp.arrays(dtype=np.int64, shape=st.integers(1, 32),
                      elements=st.integers(-128, 127)),
    data=st.data(),
)
def test_flip_changes_exactly_one_bit(values, data):
    codes = values.astype(np.int8)
    element = data.draw(st.integers(0, codes.size - 1))
    bit = data.draw(st.integers(0, 7))
    flipped = flip_bits(codes, np.array([element]), np.array([bit]), 8)
    before = count_ones(codes, 8)
    after = count_ones(flipped, 8)
    assert abs(after - before) == 1


@settings(max_examples=50, deadline=None)
@given(
    values=hnp.arrays(dtype=np.int64, shape=st.integers(1, 32),
                      elements=st.integers(-128, 127)),
    data=st.data(),
)
def test_stuck_at_bounds_one_count(values, data):
    codes = values.astype(np.int8)
    element = data.draw(st.integers(0, codes.size - 1))
    bit = data.draw(st.integers(0, 7))
    stuck1 = set_bits(codes, np.array([element]), np.array([bit]), 8, value=1)
    stuck0 = set_bits(codes, np.array([element]), np.array([bit]), 8, value=0)
    assert count_ones(stuck1, 8) >= count_ones(codes, 8)
    assert count_ones(stuck0, 8) <= count_ones(codes, 8)


@settings(max_examples=50, deadline=None)
@given(values=SMALL_FLOATS)
def test_count_ones_within_storage_bits(values):
    codes = values.astype(np.int64)
    assert 0 <= count_ones(codes, 16) <= codes.size * 16


@settings(max_examples=40, deadline=None)
@given(
    values=SMALL_FLOATS,
    integer_bits=st.integers(1, 8),
    fraction_bits=st.integers(1, 12),
)
def test_fixedpoint_roundtrip_error_bounded(values, integer_bits, fraction_bits):
    fmt = FixedPointFormat(integer_bits=integer_bits, fraction_bits=fraction_bits)
    restored = fmt.roundtrip(values)
    clipped = np.clip(values, fmt.min_value, fmt.max_value)
    assert np.abs(restored - clipped).max() <= fmt.scale / 2 + 1e-12
    # Idempotence: quantizing an already-quantized value changes nothing.
    np.testing.assert_allclose(fmt.roundtrip(restored), restored)


@settings(max_examples=40, deadline=None)
@given(values=SMALL_FLOATS)
def test_int8_roundtrip_error_bounded(values):
    codec = Int8AffineCodec()
    quantized = codec.quantize(values)
    assert np.abs(quantized.dequantize() - values).max() <= quantized.scale / 2 + 1e-12


@settings(max_examples=30, deadline=None)
@given(values=SMALL_FLOATS,
       name=st.sampled_from(["int8", "Q(1,4,11)", "Q(1,7,8)", "Q(1,10,5)", "Q(1,2,5)"]))
def test_datatype_decode_encode_idempotent(values, name):
    datatype = resolve_datatype(name)
    once = datatype.roundtrip(values)
    twice = datatype.roundtrip(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)
