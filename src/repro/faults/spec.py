"""Declarative fault-injection specifications.

A :class:`FaultSpec` fully describes one fault scenario: where the fault
enters the FRL system, which tensors it corrupts, how many bits are upset
(BER), which bit-level model applies, when it is injected (training episode /
inference step) and whether a transient upset persists (memory fault,
Trans-M) or affects a single read (register fault, Trans-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.faults.ber import BitErrorRate
from repro.faults.locations import FaultLocation, FaultTarget, effective_class
from repro.faults.models import FaultModel, resolve_fault_model


class InjectionMode(Enum):
    """When faults are materialized relative to execution.

    ``STATIC`` injection corrupts state once before execution begins (e.g.
    trained weights before inference) and has zero runtime overhead.
    ``DYNAMIC`` injection corrupts state during execution (training updates,
    activations) and is implemented as native tensor operations.
    """

    STATIC = "static"
    DYNAMIC = "dynamic"


class TransientScope(Enum):
    """How long a transient inference fault persists.

    ``SINGLE_STEP`` corresponds to the paper's Trans-1 (a faulty read register:
    only one action step is computed with corrupted data).  ``PERSISTENT``
    corresponds to Trans-M (a memory fault that affects every subsequent
    action until scrubbed).
    """

    SINGLE_STEP = "single_step"
    PERSISTENT = "persistent"


@dataclass(frozen=True)
class FaultSpec:
    """A complete description of one fault-injection scenario."""

    location: FaultLocation = FaultLocation.SERVER
    target: FaultTarget = FaultTarget.WEIGHTS
    bit_error_rate: BitErrorRate = field(default_factory=lambda: BitErrorRate(0.0))
    model: FaultModel = None  # resolved in __post_init__
    mode: InjectionMode = InjectionMode.DYNAMIC
    scope: TransientScope = TransientScope.PERSISTENT
    injection_episode: Optional[int] = None
    agent_index: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", FaultLocation.parse(self.location))
        object.__setattr__(self, "target", FaultTarget.parse(self.target))
        if isinstance(self.bit_error_rate, (int, float)):
            object.__setattr__(self, "bit_error_rate", BitErrorRate(float(self.bit_error_rate)))
        model = self.model if self.model is not None else "transient"
        object.__setattr__(self, "model", resolve_fault_model(model))
        if isinstance(self.mode, str):
            object.__setattr__(self, "mode", InjectionMode(self.mode))
        if isinstance(self.scope, str):
            object.__setattr__(self, "scope", TransientScope(self.scope))
        if self.injection_episode is not None and self.injection_episode < 0:
            raise ValueError("injection_episode must be non-negative")

    @property
    def is_enabled(self) -> bool:
        """A spec with zero BER is the fault-free baseline."""
        return self.bit_error_rate.rate > 0.0

    @property
    def analysis_class(self) -> str:
        """The paper's two-way agent/server grouping."""
        return effective_class(self.location)

    def describe(self) -> str:
        """Human-readable one-line summary of the fault scenario."""
        where = self.location.value
        when = (
            f"episode {self.injection_episode}" if self.injection_episode is not None else "any"
        )
        return (
            f"{self.model.name} faults in {where} {self.target.value} "
            f"at BER={self.bit_error_rate.rate:g} ({self.mode.value}, {when})"
        )

