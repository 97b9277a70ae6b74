"""Campaign plan builders for every registered paper artifact.

:func:`build_plan` maps an experiment identifier (``fig3a`` ... ``fig9``,
``table1``) to a :class:`~repro.runtime.cells.CampaignPlan` of independent
cells whose outputs are JSON-native and whose merge builds the result: the
heatmaps and sweeps, the per-parameter Fig. 3d bit breakdown, the
per-(location, BER) Fig. 3e recovery chains, the per-platform Fig. 9 table,
Table I, and the swarm-size/interval/data-type studies.

This module is the single source of truth for artifact parameters:
:class:`~repro.runtime.runner.CampaignRunner`, the one driver of paper
artifacts, builds every plan here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.config import DroneScale, GridWorldScale
from repro.core.experiments.drone_inference import datatype_study_plan
from repro.core.experiments.drone_training import (
    communication_interval_plan,
    drone_count_plan,
    drone_training_plan,
)
from repro.core.experiments.gridworld_inference import gridworld_inference_plan
from repro.core.experiments.gridworld_training import (
    convergence_plan,
    gridworld_training_plan,
    policy_std_plan,
    weight_distribution_plan,
)
from repro.core.experiments.mitigation_experiments import (
    inference_mitigation_plan,
    training_mitigation_plan,
)
from repro.core.experiments.overhead import overhead_plan
from repro.core.pretrained import PolicyCache, default_cache
from repro.runtime.cells import CampaignPlan


@dataclass
class CampaignContext:
    """Everything a plan builder needs: the scales and the shared cache."""

    gridworld_scale: GridWorldScale
    drone_scale: DroneScale
    cache: PolicyCache

    @classmethod
    def create(
        cls,
        gridworld_scale: Optional[GridWorldScale] = None,
        drone_scale: Optional[DroneScale] = None,
        cache: Optional[PolicyCache] = None,
    ) -> "CampaignContext":
        """Build a context, defaulting to ``fast`` scales and the default cache."""
        return cls(
            gridworld_scale=gridworld_scale or GridWorldScale.fast(),
            drone_scale=drone_scale or DroneScale.fast(),
            cache=cache or default_cache(),
        )


_BUILDERS: Dict[str, Callable[[CampaignContext], CampaignPlan]] = {
    "fig3a": lambda ctx: gridworld_training_plan("agent", scale=ctx.gridworld_scale),
    "fig3b": lambda ctx: gridworld_training_plan("server", scale=ctx.gridworld_scale),
    "fig3c": lambda ctx: gridworld_training_plan("single", scale=ctx.gridworld_scale),
    # The canonical Table I system sizes at reproduction scale.
    "table1": lambda ctx: policy_std_plan(scale=ctx.gridworld_scale, agent_counts=(1, 4, 8)),
    "fig4": lambda ctx: gridworld_inference_plan(scale=ctx.gridworld_scale, cache=ctx.cache),
    "fig5a": lambda ctx: drone_training_plan("agent", scale=ctx.drone_scale, cache=ctx.cache),
    "fig5b": lambda ctx: drone_training_plan("server", scale=ctx.drone_scale, cache=ctx.cache),
    "fig5c": lambda ctx: drone_training_plan("single", scale=ctx.drone_scale, cache=ctx.cache),
    "fig7a": lambda ctx: training_mitigation_plan(
        "gridworld", "server", scale=ctx.gridworld_scale, cache=ctx.cache
    ),
    "fig7b": lambda ctx: training_mitigation_plan(
        "drone", "server", scale=ctx.drone_scale, cache=ctx.cache
    ),
    "fig8a": lambda ctx: inference_mitigation_plan(
        "gridworld", scale=ctx.gridworld_scale, cache=ctx.cache
    ),
    "fig8b": lambda ctx: inference_mitigation_plan(
        "drone", scale=ctx.drone_scale, cache=ctx.cache
    ),
    "fig3d": lambda ctx: weight_distribution_plan(scale=ctx.gridworld_scale, cache=ctx.cache),
    "fig3e": lambda ctx: convergence_plan(scale=ctx.gridworld_scale),
    # The canonical Fig. 6a swarm sizes at reproduction scale.
    "fig6a": lambda ctx: drone_count_plan(
        scale=ctx.drone_scale, drone_counts=(2, 4), cache=ctx.cache
    ),
    "fig6b": lambda ctx: communication_interval_plan(scale=ctx.drone_scale, cache=ctx.cache),
    "datatypes": lambda ctx: datatype_study_plan(scale=ctx.drone_scale, cache=ctx.cache),
    "fig9": lambda ctx: overhead_plan(),
}


def plannable_experiment_ids() -> list:
    """Every identifier :func:`build_plan` accepts."""
    return sorted(_BUILDERS)


def build_plan(experiment_id: str, context: CampaignContext) -> CampaignPlan:
    """Build the campaign plan for ``experiment_id``."""
    builder = _BUILDERS.get(experiment_id)
    if builder is None:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {plannable_experiment_ids()}"
        )
    return builder(context)
