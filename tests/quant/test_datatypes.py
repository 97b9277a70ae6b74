"""Tests for the data-type registry."""

import numpy as np
import pytest

from repro.quant import DATATYPE_REGISTRY, Q1_4_11, resolve_datatype
from repro.quant.fixedpoint import FixedPointFormat


class TestResolveDatatype:
    def test_resolve_by_name(self):
        assert resolve_datatype("int8").bit_width == 8
        assert resolve_datatype("Q(1,4,11)").bit_width == 16

    def test_resolve_aliases(self):
        assert resolve_datatype("q1_7_8").name == "Q(1,7,8)"
        assert resolve_datatype("Q(1, 7, 8)").name == "Q(1,7,8)"

    def test_resolve_format_object(self):
        datatype = resolve_datatype(Q1_4_11)
        assert datatype.bit_width == 16

    def test_resolve_custom_format(self):
        fmt = FixedPointFormat(integer_bits=1, fraction_bits=6)
        assert resolve_datatype(fmt).bit_width == 8

    def test_resolve_datatype_passthrough(self):
        datatype = resolve_datatype("int8")
        assert resolve_datatype(datatype) is datatype

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            resolve_datatype("float64")

    def test_registry_contains_paper_formats(self):
        for name in ("Q(1,4,11)", "Q(1,7,8)", "Q(1,10,5)", "int8"):
            assert name in DATATYPE_REGISTRY


class TestDataTypeRoundtrip:
    @pytest.mark.parametrize("name", ["int8", "Q(1,4,11)", "Q(1,7,8)", "Q(1,10,5)", "Q(1,2,5)"])
    def test_roundtrip_close(self, name):
        datatype = resolve_datatype(name)
        values = np.random.default_rng(0).uniform(-1, 1, size=200)
        restored = datatype.roundtrip(values)
        assert np.abs(restored - values).max() < 0.1

    def test_encode_returns_integer_codes(self):
        datatype = resolve_datatype("Q(1,4,11)")
        codes, _ = datatype.encode(np.array([0.25]))
        assert np.issubdtype(codes.dtype, np.integer)

    def test_int8_context_is_scale(self):
        datatype = resolve_datatype("int8")
        codes, scale = datatype.encode(np.array([1.0, -0.5]))
        restored = datatype.decode(codes, scale)
        assert restored[0] == pytest.approx(1.0, abs=scale)


def _every_code_word(datatype, codes):
    """All ``2 ** bit_width`` bit patterns, in the dtype ``encode`` stores them in."""
    every = np.arange(2**datatype.bit_width, dtype=np.int64).astype(codes.dtype)
    assert np.unique(every).size == 2**datatype.bit_width
    return every


class TestCodeWordsDecodeFinite:
    """Every code word of every registered data type decodes to a finite float.

    A fault flips bits of the encoded words and decodes the result, so no
    fault-injected policy can hold a NaN or an infinite weight.  That is why
    a NaN payload never reaches a stacked ``Linear`` bias add from a weight.
    (int8's word -128 overflows only for a tensor whose largest magnitude
    exceeds 127/128 of the largest float.)
    """

    @pytest.mark.parametrize(
        "name", sorted(name for name, entry in DATATYPE_REGISTRY.items() if entry.name != "int8")
    )
    def test_fixed_point(self, name):
        datatype = DATATYPE_REGISTRY[name]
        assert datatype.bit_width in (8, 16)
        codes, context = datatype.encode(np.array([0.5]))
        decoded = datatype.decode(_every_code_word(datatype, codes), context)
        assert np.isfinite(decoded).all()

    @pytest.mark.parametrize(
        "values", [[0.0], [5e-324], [1e-3, -2e-4], [0.5, -1.0], [3.0e4], [-1e300]]
    )
    def test_int8_at_its_scales(self, values):
        datatype = DATATYPE_REGISTRY["int8"]
        codes, scale = datatype.encode(np.array(values))
        decoded = datatype.decode(_every_code_word(datatype, codes), scale)
        assert np.isfinite(decoded).all()
        assert decoded.min() == -128 * scale and decoded.max() == 127 * scale
