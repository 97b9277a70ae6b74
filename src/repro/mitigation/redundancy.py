"""Hardware-redundancy baselines: DMR and TMR.

Dual and triple modular redundancy are the conventional protections the paper
compares against.  Functionally, DMR detects a mismatch between two replicas
(and must fall back to re-execution or a safe state), while TMR corrects
single-replica corruption by majority voting.  Their real cost in a drone is
the extra compute hardware: power and weight that shrink the achievable safe
flight distance (paper Fig. 9), modelled in :mod:`repro.droneperf` from the
cost profiles below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class RedundancyScheme:
    """Cost profile of a protection scheme for the end-to-end overhead model."""

    name: str
    compute_replicas: int
    runtime_overhead: float  # fraction of extra execution time on the critical path
    detects: bool
    corrects: bool

    def __post_init__(self) -> None:
        if self.compute_replicas < 1:
            raise ValueError("compute_replicas must be at least 1")
        if self.runtime_overhead < 0:
            raise ValueError("runtime_overhead must be non-negative")


# The schemes compared in Fig. 9.  The proposed detection scheme runs on the
# existing hardware with <2.7 % runtime overhead; DMR/TMR replicate the
# compute subsystem.
PROTECTION_SCHEMES: Dict[str, RedundancyScheme] = {
    "baseline": RedundancyScheme("baseline", compute_replicas=1, runtime_overhead=0.0,
                                 detects=False, corrects=False),
    "detection": RedundancyScheme("detection", compute_replicas=1, runtime_overhead=0.027,
                                  detects=True, corrects=True),
    "dmr": RedundancyScheme("dmr", compute_replicas=2, runtime_overhead=0.0,
                            detects=True, corrects=False),
    "tmr": RedundancyScheme("tmr", compute_replicas=3, runtime_overhead=0.0,
                            detects=True, corrects=True),
}
