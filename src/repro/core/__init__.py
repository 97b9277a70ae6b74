"""FRL-FI core: the end-to-end reliability-analysis framework.

This package ties the substrates together into the paper's experiments:
experiment scales (fast CI-sized and paper-sized), the fault-injection
training callback, workload builders for GridWorld and DroneNav FRL systems,
a disk cache of pre-trained policies, and, in :mod:`repro.core.experiments`,
the cell functions and plan builders of every paper figure/table.
"""

from repro.core.config import DroneScale, GridWorldScale
from repro.core.results import HeatmapResult, SweepResult, TableResult
from repro.core.fault_callbacks import TrainingFaultCallback
from repro.core.workloads import (
    build_drone_frl_system,
    build_drone_single_system,
    build_gridworld_frl_system,
    build_gridworld_single_system,
)
from repro.core.pretrained import PolicyCache, default_cache

__all__ = [
    "GridWorldScale",
    "DroneScale",
    "HeatmapResult",
    "SweepResult",
    "TableResult",
    "TrainingFaultCallback",
    "build_gridworld_frl_system",
    "build_gridworld_single_system",
    "build_drone_frl_system",
    "build_drone_single_system",
    "PolicyCache",
    "default_cache",
]
