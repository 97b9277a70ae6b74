"""End-to-end protection-overhead comparison (paper Fig. 9)."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.results import TableResult
from repro.droneperf import AIRSIM_DRONE, DJI_SPARK, DronePlatform, evaluate_protection_overheads
from repro.runtime.cells import CampaignPlan, CellTask


def overhead_cell(platform: DronePlatform, schemes: Sequence[str]) -> list:
    """One platform's Fig. 9 rows, one per protection scheme.

    Each row is ``[platform, scheme, flight distance (m), flight time (min),
    total power (W), distance loss vs detection (%)]``, estimated by the
    analytical performance model.
    """
    result = evaluate_protection_overheads(platform, schemes=schemes)
    reference = result.estimates["detection"].flight_distance_m
    rows = []
    for scheme in schemes:
        estimate = result.estimates[scheme]
        degradation_vs_detection = (
            (reference - estimate.flight_distance_m) / reference * 100.0 if reference else 0.0
        )
        rows.append(
            [
                platform.name,
                scheme,
                estimate.flight_distance_m,
                estimate.flight_time_s / 60.0,
                estimate.total_power_w,
                degradation_vs_detection,
            ]
        )
    return rows


def overhead_plan(
    platforms: Optional[Sequence[DronePlatform]] = None,
    schemes: Sequence[str] = ("baseline", "detection", "dmr", "tmr"),
) -> CampaignPlan:
    """Flight-distance cost of DMR/TMR versus the proposed detection scheme.

    One :func:`overhead_cell` per platform (default: the AirSim drone and the
    DJI Spark); the merge concatenates their rows in platform order into the
    paper's Fig. 9 table.
    """
    platforms = list(platforms) if platforms is not None else [AIRSIM_DRONE, DJI_SPARK]
    schemes = tuple(schemes)
    cells = [
        CellTask(
            experiment_id="fig9",
            key=("platform", platform.name),
            fn=overhead_cell,
            kwargs={"platform": platform, "schemes": schemes},
        )
        for platform in platforms
    ]

    def merge(outputs):
        return TableResult(
            title="Protection-scheme overhead comparison (Fig. 9)",
            headers=[
                "platform",
                "scheme",
                "flight distance (m)",
                "flight time (min)",
                "total power (W)",
                "distance loss vs detection (%)",
            ],
            rows=[row for rows in outputs for row in rows],
            metadata={"schemes": list(schemes)},
        )

    return CampaignPlan(experiment_id="fig9", cells=cells, merge=merge)
