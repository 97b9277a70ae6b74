"""Bit-level fault models.

The paper's primary model is the random transient bit flip; stuck-at-0 and
stuck-at-1 appear as comparison points in the GridWorld inference study
(Fig. 4 insets).  All models operate on integer code words and are expressed
through :mod:`repro.utils.bitops` primitives.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.utils.bitops import flip_bits, set_bits


class FaultModel:
    """Base class: a named transformation of selected bits in a code array."""

    name = "fault"

    def apply(
        self,
        codes: np.ndarray,
        element_indices: np.ndarray,
        bit_positions: np.ndarray,
        bit_width: int,
    ) -> np.ndarray:
        """Return a corrupted copy of ``codes``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class TransientBitFlip(FaultModel):
    """Random bit flips (0→1 and 1→0), the transient soft-error abstraction."""

    name = "transient"

    def apply(self, codes, element_indices, bit_positions, bit_width):
        """XOR-flip the selected bits of ``codes`` (lane-batched, in one ufunc pass)."""
        return flip_bits(codes, element_indices, bit_positions, bit_width)


class StuckAt0(FaultModel):
    """Selected bits forced to 0."""

    name = "stuck-at-0"

    def apply(self, codes, element_indices, bit_positions, bit_width):
        """Force the selected bits of ``codes`` to 0."""
        return set_bits(codes, element_indices, bit_positions, bit_width, value=0)


class StuckAt1(FaultModel):
    """Selected bits forced to 1."""

    name = "stuck-at-1"

    def apply(self, codes, element_indices, bit_positions, bit_width):
        """Force the selected bits of ``codes`` to 1."""
        return set_bits(codes, element_indices, bit_positions, bit_width, value=1)


_MODELS = {model.name: model for model in (TransientBitFlip, StuckAt0, StuckAt1)}


def resolve_fault_model(model: Union[str, FaultModel]) -> FaultModel:
    """Resolve a fault model by its :attr:`FaultModel.name` into an instance."""
    if isinstance(model, FaultModel):
        return model
    if model not in _MODELS:
        raise KeyError(f"unknown fault model {model!r}; known models: {sorted(_MODELS)}")
    return _MODELS[model]()
