"""The fault injector: corrupt float tensors through their storage encoding.

Corruption is a three-step pipeline that mirrors what happens in hardware:

1. encode the float tensor into integer code words using the configured
   storage data type (int8 or fixed point),
2. upset bits according to the bit-error rate and fault model,
3. decode the corrupted code words back to float values.

The injector never mutates its inputs; callers decide whether to write the
corrupted values back into a policy (persistent memory fault) or use them for
a single computation (register fault).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.faults.ber import BitErrorRate
from repro.faults.models import FaultModel, TransientBitFlip, resolve_fault_model
from repro.quant.datatypes import DataType, resolve_datatype
from repro.utils.bitops import random_bit_positions
from repro.utils.rng import as_rng


@dataclass
class InjectionRecord:
    """Bookkeeping for one injection event (used by tests and reports)."""

    total_bits: int
    flipped_bits: int
    bit_error_rate: float
    target_elements: int
    corrupted_elements: int
    datatype: str
    model: str
    details: dict = field(default_factory=dict)


class FaultInjector:
    """Injects bit-level faults into float tensors and policy state dicts."""

    def __init__(
        self,
        datatype: Union[str, DataType] = "int8",
        model: Union[str, FaultModel] = None,
        rng=None,
    ) -> None:
        self.datatype = resolve_datatype(datatype)
        self.model = resolve_fault_model(model) if model is not None else TransientBitFlip()
        self._rng = as_rng(rng)
        self.history: List[InjectionRecord] = []

    @property
    def rng(self) -> np.random.Generator:
        """The injector's explicit random generator (REP001: never global state)."""
        return self._rng

    def corrupt_array(
        self,
        values: np.ndarray,
        bit_error_rate: Union[float, BitErrorRate],
        model: Optional[Union[str, FaultModel]] = None,
        record: bool = True,
    ) -> np.ndarray:
        """Return a corrupted copy of ``values``.

        The number of upset bits is drawn from the BER over the total number
        of storage bits of the tensor; bits and elements are chosen uniformly
        at random (multiple upsets may hit the same element).
        """
        values = np.asarray(values, dtype=np.float64)
        ber = bit_error_rate if isinstance(bit_error_rate, BitErrorRate) else BitErrorRate(
            float(bit_error_rate)
        )
        fault_model = resolve_fault_model(model) if model is not None else self.model
        codes, context = self.datatype.encode(values)
        total_bits = values.size * self.datatype.bit_width
        fault_count = ber.fault_count(total_bits, self._rng)
        if fault_count == 0 or values.size == 0:
            if record:
                self.history.append(
                    InjectionRecord(
                        total_bits=total_bits,
                        flipped_bits=0,
                        bit_error_rate=ber.rate,
                        target_elements=values.size,
                        corrupted_elements=0,
                        datatype=self.datatype.name,
                        model=fault_model.name,
                    )
                )
            return values.copy()
        element_indices = self._rng.integers(0, values.size, size=fault_count)
        bit_positions = random_bit_positions(self._rng, fault_count, self.datatype.bit_width)
        corrupted_codes = fault_model.apply(
            codes, element_indices, bit_positions, self.datatype.bit_width
        )
        corrupted = self.datatype.decode(corrupted_codes, context).reshape(values.shape)
        if record:
            self.history.append(
                InjectionRecord(
                    total_bits=total_bits,
                    flipped_bits=fault_count,
                    bit_error_rate=ber.rate,
                    target_elements=values.size,
                    corrupted_elements=int(np.unique(element_indices).size),
                    datatype=self.datatype.name,
                    model=fault_model.name,
                )
            )
        return corrupted

    def corrupt_state_dict(
        self,
        state: Dict[str, np.ndarray],
        bit_error_rate: Union[float, BitErrorRate],
        model: Optional[Union[str, FaultModel]] = None,
    ) -> Dict[str, np.ndarray]:
        """Corrupt a whole policy state dict as one contiguous memory region.

        Treating the concatenated parameters as a single memory region makes
        the BER interpretation identical to the per-tensor case while letting
        large layers absorb proportionally more upsets, as they would in a
        real weight memory.
        """
        if not state:
            return {}
        names = sorted(state)
        shapes = {name: np.asarray(state[name]).shape for name in names}
        sizes = {name: math.prod(shapes[name]) for name in names}
        flat = np.concatenate(
            [np.asarray(state[name], dtype=np.float64).reshape(-1) for name in names]
        )
        corrupted_flat = self.corrupt_array(flat, bit_error_rate, model=model)
        corrupted: Dict[str, np.ndarray] = {}
        cursor = 0
        for name in names:
            size = sizes[name]
            corrupted[name] = corrupted_flat[cursor : cursor + size].reshape(shapes[name])
            cursor += size
        return corrupted

    @staticmethod
    def corrupt_lanes(
        injectors: Sequence["FaultInjector"],
        values: np.ndarray,
        bit_error_rate: Union[float, BitErrorRate],
        model: Optional[Union[str, FaultModel]] = None,
        record: bool = True,
    ) -> np.ndarray:
        """Corrupt a stack of tensors, one lane per injector.

        ``values`` has shape ``(lanes, ...)``; lane ``i`` is
        ``injectors[i].corrupt_array(values[i], ...)``, called in lane order,
        so each lane draws from its own injector's stream and records in its
        own history.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim < 1 or values.shape[0] != len(injectors):
            raise ValueError(
                f"values must stack one lane per injector, got shape {values.shape} "
                f"for {len(injectors)} injectors"
            )
        return np.stack(
            [
                injector.corrupt_array(values[lane], bit_error_rate, model=model, record=record)
                for lane, injector in enumerate(injectors)
            ]
        )

    def total_injected_bits(self) -> int:
        """Total number of bits upset across all recorded injections."""
        return sum(record.flipped_bits for record in self.history)


#: Module-level alias of :meth:`FaultInjector.corrupt_lanes`.
corrupt_lanes = FaultInjector.corrupt_lanes
