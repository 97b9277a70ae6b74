"""Experiment functions — one per paper figure/table (DESIGN.md §4)."""

from repro.core.experiments.gridworld_training import (
    convergence_after_fault,
    gridworld_training_heatmap,
    policy_std_table,
    weight_distribution,
)
from repro.core.experiments.gridworld_inference import gridworld_inference_sweep
from repro.core.experiments.drone_training import (
    communication_interval_study,
    drone_count_sweep,
    drone_training_heatmap,
)
from repro.core.experiments.drone_inference import datatype_study
from repro.core.experiments.mitigation_experiments import (
    inference_mitigation_sweep,
    training_mitigation_heatmap,
)
from repro.core.experiments.overhead import overhead_comparison

__all__ = [
    "gridworld_training_heatmap",
    "convergence_after_fault",
    "policy_std_table",
    "weight_distribution",
    "gridworld_inference_sweep",
    "drone_training_heatmap",
    "drone_count_sweep",
    "communication_interval_study",
    "datatype_study",
    "training_mitigation_heatmap",
    "inference_mitigation_sweep",
    "overhead_comparison",
]
