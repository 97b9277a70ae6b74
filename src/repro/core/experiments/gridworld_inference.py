"""GridWorld inference-time experiments (paper Fig. 4)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.config import GridWorldScale
from repro.core.experiments.inference_utils import (
    single_step_fault_success_rate,
    success_rate_over_envs,
)
from repro.core.pretrained import PolicyCache, default_cache
from repro.core.results import SweepResult
from repro.core.workloads import gridworld_environments
from repro.faults import FaultInjector
from repro.runtime.cells import CampaignPlan, CellTask
from repro.utils.rng import RngFactory

StateDict = Dict[str, np.ndarray]

DEFAULT_INFERENCE_BERS = (0.0, 0.005, 0.01, 0.02)
DEFAULT_VARIANTS = ("Multi-Trans-M", "Multi-Trans-1", "Single-Trans-M", "Stuck-at-0", "Stuck-at-1")


def gridworld_inference_cell(
    scale: GridWorldScale,
    ber: float,
    ber_index: int,
    repeat: int,
    variants: Sequence[str],
    multi_policy: StateDict,
    single_policy: Optional[StateDict],
    attempts: int,
) -> list:
    """One (BER, repeat) draw of the Fig. 4 sweep, all variants in order.

    The variants share one RNG stream keyed by (ber_index, repeat), exactly as
    the historical serial loop did, so decomposed execution reproduces the
    same values bit for bit.
    """
    envs = gridworld_environments(scale)
    single_envs = envs[:1]
    stream = RngFactory(scale.seed).stream("inference", ber_index, repeat)
    injector = FaultInjector(datatype=scale.datatype, model="transient", rng=stream)
    outputs = []
    for variant in variants:
        if variant == "Multi-Trans-M":
            corrupted = injector.corrupt_state_dict(multi_policy, ber)
            outputs.append(success_rate_over_envs(scale, corrupted, envs, attempts, stream))
        elif variant == "Multi-Trans-1":
            corrupted = injector.corrupt_state_dict(multi_policy, ber)
            outputs.append(
                single_step_fault_success_rate(
                    scale, multi_policy, corrupted, envs, attempts, rng=stream
                )
            )
        elif variant == "Single-Trans-M":
            corrupted = injector.corrupt_state_dict(single_policy, ber)
            outputs.append(success_rate_over_envs(scale, corrupted, single_envs, attempts, stream))
        elif variant in ("Stuck-at-0", "Stuck-at-1"):
            model = "stuck-at-0" if variant == "Stuck-at-0" else "stuck-at-1"
            stuck_injector = FaultInjector(datatype=scale.datatype, model=model, rng=stream)
            corrupted = stuck_injector.corrupt_state_dict(multi_policy, ber)
            outputs.append(success_rate_over_envs(scale, corrupted, envs, attempts, stream))
        else:
            raise ValueError(f"unknown inference variant {variant!r}")
    return outputs


def gridworld_inference_plan(
    scale: Optional[GridWorldScale] = None,
    ber_values: Sequence[float] = DEFAULT_INFERENCE_BERS,
    variants: Sequence[str] = DEFAULT_VARIANTS,
    cache: Optional[PolicyCache] = None,
    repeats: int = 3,
) -> CampaignPlan:
    """Success rate vs BER for the paper's inference fault variants (Fig. 4).

    * ``Multi-Trans-M``  — persistent memory fault in the unified FRL policy,
    * ``Multi-Trans-1``  — register fault affecting a single action step,
    * ``Single-Trans-M`` — persistent memory fault in the single-agent policy,
    * ``Stuck-at-0`` / ``Stuck-at-1`` — persistent stuck-at faults in the FRL
      policy (the Fig. 4 inset comparison).

    One cell per (BER, repeat) evaluates every variant in order.

    The trained baselines are resolved through the disk-backed policy cache at
    plan time (training them once in the parent process); cells carry
    :class:`~repro.runtime.residency.PolicyRef` handles, so pooled workers
    never retrain a baseline and decode each referenced policy only once.
    """
    scale = scale or GridWorldScale.fast()
    ber_values = tuple(ber_values)
    variants = tuple(variants)
    for variant in variants:
        if variant not in DEFAULT_VARIANTS:
            raise ValueError(f"unknown inference variant {variant!r}; known: {DEFAULT_VARIANTS}")
    cache = cache or default_cache()
    trained = cache.gridworld_policies(scale)
    clean_success_rate = trained["success_rate"] * 100.0
    multi_policy = cache.gridworld_consensus_ref(scale)
    single_policy = (
        cache.gridworld_single_policy_ref(scale) if "Single-Trans-M" in variants else None
    )
    attempts = max(2, scale.evaluation_attempts // 2)
    cells = [
        CellTask(
            experiment_id="fig4",
            key=("ber", ber_index, "repeat", repeat),
            fn=gridworld_inference_cell,
            kwargs={
                "scale": scale,
                "ber": ber,
                "ber_index": ber_index,
                "repeat": repeat,
                "variants": variants,
                "multi_policy": multi_policy,
                "single_policy": single_policy,
                "attempts": attempts,
            },
        )
        for ber_index, ber in enumerate(ber_values)
        for repeat in range(repeats)
    ]

    def merge(outputs):
        series: Dict[str, list] = {variant: [] for variant in variants}
        for ber_index in range(len(ber_values)):
            cell_outputs = outputs[ber_index * repeats : (ber_index + 1) * repeats]
            for variant_index, variant in enumerate(variants):
                accumulator = [cell[variant_index] for cell in cell_outputs]
                series[variant].append(float(np.mean(accumulator)) * 100.0)
        return SweepResult(
            title="GridWorld inference under transient faults (Fig. 4)",
            metric="success rate (%)",
            x_axis="BER",
            x_values=[f"{ber:.3%}" for ber in ber_values],
            series=series,
            metadata={"clean_success_rate": clean_success_rate, "repeats": repeats},
        )

    return CampaignPlan(experiment_id="fig4", cells=cells, merge=merge)
