"""Declarative fault-injection specifications.

A :class:`FaultSpec` fully describes one fault scenario: where the fault
enters the FRL system, which tensors it corrupts, how many bits are upset
(BER), which bit-level model applies, when it is injected (training episode)
and, optionally, which agent it hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.faults.ber import BitErrorRate
from repro.faults.locations import FaultLocation, FaultTarget, effective_class
from repro.faults.models import FaultModel, resolve_fault_model


@dataclass(frozen=True)
class FaultSpec:
    """A complete description of one fault-injection scenario."""

    location: FaultLocation = FaultLocation.SERVER
    target: FaultTarget = FaultTarget.WEIGHTS
    bit_error_rate: BitErrorRate = field(default_factory=lambda: BitErrorRate(0.0))
    model: FaultModel = None  # resolved in __post_init__
    injection_episode: Optional[int] = None
    agent_index: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", FaultLocation.parse(self.location))
        object.__setattr__(self, "target", FaultTarget.parse(self.target))
        if isinstance(self.bit_error_rate, (int, float)):
            object.__setattr__(self, "bit_error_rate", BitErrorRate(float(self.bit_error_rate)))
        model = self.model if self.model is not None else "transient"
        object.__setattr__(self, "model", resolve_fault_model(model))
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
            f"at BER={self.bit_error_rate.rate:g} ({when})"
        )

