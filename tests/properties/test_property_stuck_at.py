"""Property tests for the stuck-at fault models on random code words.

A stuck-at fault forces its selected bits to one value however often it
strikes.  Over random 8- and 16-bit code arrays and event sets that repeat
elements and bits: applying ``StuckAt0``/``StuckAt1`` twice with the same
events equals applying it once, every selected bit ends up cleared or set,
and no other bit changes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.faults.models import StuckAt0, StuckAt1

#: Code word dtype per bit width, as the int8 and fixed-point codecs store them.
CODE_DTYPES = {8: np.int8, 16: np.int16}
MODELS = (StuckAt0(), StuckAt1())


@st.composite
def stuck_at_cases(draw):
    """Codes, element indices and bit positions; events repeat elements and bits."""
    width = draw(st.sampled_from(sorted(CODE_DTYPES)))
    dtype = CODE_DTYPES[width]
    info = np.iinfo(dtype)
    codes = draw(
        hnp.arrays(
            dtype=dtype,
            shape=st.integers(1, 24),
            elements=st.integers(int(info.min), int(info.max)),
        )
    )
    events = draw(
        st.lists(st.tuples(st.integers(0, codes.size - 1), st.integers(0, width - 1)), max_size=32)
    )
    if events:
        # Repeat whole events, and hit a drawn element at several bits.
        events += draw(st.lists(st.sampled_from(events), max_size=8))
        element = draw(st.sampled_from(events))[0]
        events += [(element, bit) for bit in draw(st.lists(st.integers(0, width - 1), max_size=6))]
        events = draw(st.permutations(events))
    elements = np.array([event[0] for event in events], dtype=np.int64)
    bits = np.array([event[1] for event in events], dtype=np.int64)
    return width, codes, elements, bits


def _unsigned(codes):
    return codes.view(np.dtype(f"u{codes.itemsize}"))


def _selected_masks(size, elements, bits, dtype):
    """Per element, the OR of every selected bit."""
    masks = np.zeros(size, dtype=dtype)
    np.bitwise_or.at(masks, elements, (np.uint64(1) << bits.astype(np.uint64)).astype(dtype))
    return masks


@settings(max_examples=100, deadline=None)
@given(case=stuck_at_cases())
def test_stuck_at_twice_equals_once(case):
    width, codes, elements, bits = case
    for model in MODELS:
        once = model.apply(codes, elements, bits, width)
        twice = model.apply(once, elements, bits, width)
        assert once.dtype == codes.dtype and once.shape == codes.shape
        assert twice.tobytes() == once.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=stuck_at_cases())
def test_selected_bits_forced_and_no_other_bit_changes(case):
    width, codes, elements, bits = case
    before = _unsigned(codes)
    masks = _selected_masks(codes.size, elements, bits, before.dtype)
    for model, value in zip(MODELS, (0, 1)):
        after = _unsigned(model.apply(codes, elements, bits, width))
        forced = (after & masks) == (masks if value else 0)
        assert forced.all(), f"{model.name}: a selected bit is not {value}"
        assert not ((after ^ before) & ~masks).any(), f"{model.name}: an unselected bit moved"
