"""DroneNav inference-time experiments (paper §IV-B-3 data-type study)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.config import DroneScale
from repro.core.experiments.inference_utils import (
    drone_agent_with_state,
    flight_distance_over_envs,
)
from repro.core.pretrained import PolicyCache, default_cache
from repro.core.results import SweepResult
from repro.core.workloads import drone_environments
from repro.faults import FaultInjector
from repro.runtime.cells import CampaignPlan, CellTask
from repro.utils.rng import RngFactory

StateDict = Dict[str, np.ndarray]

DEFAULT_DATATYPES = ("Q(1,4,11)", "Q(1,7,8)", "Q(1,10,5)")
DEFAULT_DATATYPE_BERS = (0.0, 1e-3, 1e-2)


def datatype_cell(
    scale: DroneScale,
    datatype: str,
    ber: float,
    ber_index: int,
    repeat: int,
    policy: StateDict,
) -> float:
    """One (datatype, BER, repeat) draw of the data-type study.

    The injector and the evaluation share one RNG stream keyed by the cell
    coordinates, exactly as the historical serial loop did, so decomposed
    execution reproduces the same flight distances bit for bit.
    """
    envs = drone_environments(scale)
    stream = RngFactory(scale.seed).stream("datatype", datatype, ber_index, repeat)
    injector = FaultInjector(datatype=datatype, model="transient", rng=stream)
    corrupted = injector.corrupt_state_dict(policy, ber)
    agent = drone_agent_with_state(scale, corrupted, rng=stream)
    return flight_distance_over_envs(agent, envs)


def datatype_study_plan(
    scale: Optional[DroneScale] = None,
    datatypes: Sequence[str] = DEFAULT_DATATYPES,
    ber_values: Sequence[float] = DEFAULT_DATATYPE_BERS,
    cache: Optional[PolicyCache] = None,
    repeats: int = 2,
) -> CampaignPlan:
    """Inference resilience of fixed-point data types (paper §IV-B-3).

    The policy weights are stored in each Q(sign, integer, fraction) format
    and corrupted at increasing BER, one cell per (BER, datatype, repeat).  A
    format whose range barely covers the parameter distribution (Q(1,4,11))
    limits the damage a high-order bit flip can do, while an unnecessarily
    wide format (Q(1,10,5)) produces large outliers.
    """
    scale = scale or DroneScale.fast()
    cache = cache or default_cache()
    datatypes = tuple(datatypes)
    ber_values = tuple(ber_values)
    policy = cache.drone_policy_ref(scale)
    cells = [
        CellTask(
            experiment_id="datatypes",
            key=("ber", ber_index, "datatype", datatype, "repeat", repeat),
            fn=datatype_cell,
            kwargs={
                "scale": scale,
                "datatype": datatype,
                "ber": ber,
                "ber_index": ber_index,
                "repeat": repeat,
                "policy": policy,
            },
        )
        for ber_index, ber in enumerate(ber_values)
        for datatype in datatypes
        for repeat in range(repeats)
    ]

    def merge(outputs):
        series: Dict[str, list] = {name: [] for name in datatypes}
        cursor = iter(outputs)
        for _ber_index in range(len(ber_values)):
            for datatype in datatypes:
                distances = [next(cursor) for _ in range(repeats)]
                series[datatype].append(float(np.mean(distances)))
        return SweepResult(
            title="Data-type resilience study (paper §IV-B-3)",
            metric="safe flight distance (m)",
            x_axis="BER",
            x_values=[f"{ber:g}" for ber in ber_values],
            series=series,
            metadata={"repeats": repeats},
        )

    return CampaignPlan(experiment_id="datatypes", cells=cells, merge=merge)
