"""Mitigation experiments: checkpoint recovery and anomaly detection (Figs. 7-8)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.config import DroneScale, GridWorldScale
from repro.core.experiments.drone_training import (
    DEFAULT_DRONE_BERS,
    _injection_episodes as _drone_injection_episodes,
)
from repro.core.experiments.gridworld_training import (
    DEFAULT_BERS,
    DEFAULT_EPISODE_FRACTIONS,
    _injection_episodes as _gridworld_injection_episodes,
)
from repro.core.experiments.inference_utils import (
    drone_agent_with_state,
    flight_distance_over_envs,
    success_rate_over_envs,
)
from repro.core.fault_callbacks import make_training_fault
from repro.core.pretrained import PolicyCache, default_cache
from repro.core.results import HeatmapResult, SweepResult, summarize_improvement
from repro.core.workloads import (
    build_drone_frl_system,
    build_gridworld_frl_system,
    drone_environments,
    gridworld_environments,
)
from repro.faults import FaultInjector
from repro.mitigation import RangeAnomalyDetector, ServerCheckpointCallback
from repro.runtime.cells import CampaignPlan, CellTask, accumulate_heatmap, grid_merge_order
from repro.utils.rng import RngFactory


def training_mitigation_cell(
    workload: str,
    location: str,
    scale,
    pretrained: Optional[dict],
    ber: float,
    injection_episode: int,
    total_episodes: int,
    detection_k: int,
    drop_percent: float,
    checkpoint_interval: int,
    repeat: int,
    row: int,
    column: int,
) -> float:
    """One (repeat, BER, injection-episode) cell of the Fig. 7 heatmaps."""
    if workload == "gridworld":
        system = build_gridworld_frl_system(scale, seed_offset=repeat)
    else:
        system = build_drone_frl_system(scale, seed_offset=repeat, initial_state=pretrained)
    fault = make_training_fault(
        location=location,
        bit_error_rate=ber,
        injection_episode=injection_episode,
        datatype=scale.datatype,
        rng=RngFactory(scale.seed).stream("mitig", repeat, row, column),
    )
    protection = ServerCheckpointCallback(
        agent_count=system.agent_count,
        drop_percent=drop_percent,
        consecutive_episodes=detection_k,
        checkpoint_interval=checkpoint_interval,
    )
    system.train(total_episodes, callbacks=[fault, protection])
    if workload == "gridworld":
        return system.average_success_rate(attempts=scale.evaluation_attempts)
    return system.average_flight_distance()


def training_mitigation_plan(
    workload: str = "gridworld",
    location: str = "server",
    scale=None,
    ber_values: Optional[Sequence[float]] = None,
    episode_fractions: Sequence[float] = DEFAULT_EPISODE_FRACTIONS,
    drop_percent: float = 25.0,
    consecutive_episodes: Optional[int] = None,
    checkpoint_interval: int = 5,
    cache: Optional[PolicyCache] = None,
) -> CampaignPlan:
    """Training-time fault recovery with server checkpointing (paper Fig. 7).

    The same (repeat, BER, injection episode) cells as the unprotected
    training heatmaps, but a :class:`ServerCheckpointCallback` monitors
    reward drops and restores the checkpointed consensus policy.
    ``consecutive_episodes`` (the paper's ``k``) defaults to a value
    proportional to the scaled-down episode count.
    """
    if workload not in ("gridworld", "drone"):
        raise ValueError(f"workload must be 'gridworld' or 'drone', got {workload!r}")
    if location not in ("agent", "server"):
        raise ValueError(f"location must be 'agent' or 'server', got {location!r}")
    cache = cache or default_cache()
    pretrained = None
    if workload == "gridworld":
        scale = scale or GridWorldScale.fast()
        ber_values = tuple(ber_values) if ber_values is not None else DEFAULT_BERS
        episodes = _gridworld_injection_episodes(scale, episode_fractions)
        total_episodes = scale.episodes
        detection_k = consecutive_episodes or max(3, scale.episodes // 30)
        metric = "success rate (%)"
    else:
        scale = scale or DroneScale.fast()
        ber_values = tuple(ber_values) if ber_values is not None else DEFAULT_DRONE_BERS
        episodes = _drone_injection_episodes(scale, episode_fractions)
        total_episodes = scale.fine_tune_episodes
        detection_k = consecutive_episodes or max(1, scale.fine_tune_episodes // 6)
        metric = "safe flight distance (m)"
        pretrained = cache.drone_policy_ref(scale)

    experiment_id = "fig7a" if workload == "gridworld" else "fig7b"
    cells = [
        CellTask(
            experiment_id=experiment_id,
            key=("repeat", repeat, "ber", row, "episode", column),
            fn=training_mitigation_cell,
            kwargs={
                "workload": workload,
                "location": location,
                "scale": scale,
                "pretrained": pretrained,
                "ber": ber_values[row],
                "injection_episode": episodes[column],
                "total_episodes": total_episodes,
                "detection_k": detection_k,
                "drop_percent": drop_percent,
                "checkpoint_interval": checkpoint_interval,
                "repeat": repeat,
                "row": row,
                "column": column,
            },
        )
        for repeat, row, column in grid_merge_order(scale.repeats, len(ber_values), len(episodes))
    ]

    def merge(outputs):
        values = accumulate_heatmap(outputs, scale.repeats, len(ber_values), len(episodes))
        values /= scale.repeats
        if workload == "gridworld":
            values *= 100.0
        return HeatmapResult(
            title=f"Training with server checkpointing, {workload}, {location} faults (Fig. 7)",
            metric=metric,
            row_axis="BER",
            column_axis="episode",
            row_labels=[f"{ber:g}" for ber in ber_values],
            column_labels=list(episodes),
            values=values,
            metadata={
                "workload": workload,
                "location": location,
                "drop_percent": drop_percent,
                "consecutive_episodes": detection_k,
                "checkpoint_interval": checkpoint_interval,
            },
        )

    return CampaignPlan(experiment_id=experiment_id, cells=cells, merge=merge)


def inference_mitigation_cell(
    workload: str,
    scale,
    policy: dict,
    margin: float,
    ber: float,
    ber_index: int,
    repeat: int,
    attempts: Optional[int] = None,
) -> tuple:
    """One (BER, repeat) draw of the Fig. 8 sweep.

    Returns ``(no_mitigation, mitigation, repaired_count)``.  ``attempts`` is
    the GridWorld walks per environment; a drone policy flies once per world.
    The range detector is recalibrated on the clean policy inside the cell —
    calibration is deterministic, so this matches the historical
    calibrate-once loop.
    """
    stream = RngFactory(0).stream(workload, ber_index, repeat)
    injector = FaultInjector(datatype=scale.datatype, model="transient", rng=stream)
    corrupted = injector.corrupt_state_dict(policy, ber)
    detector = RangeAnomalyDetector(margin=margin)
    detector.calibrate(policy)
    if workload == "gridworld":
        envs = gridworld_environments(scale)

        def evaluate(state, rng):
            return success_rate_over_envs(scale, state, envs, attempts, rng) * 100.0

    else:
        envs = drone_environments(scale)

        def evaluate(state, rng):
            agent = drone_agent_with_state(scale, state, rng=rng)
            return flight_distance_over_envs(agent, envs)

    plain = evaluate(corrupted, stream)
    repaired, repaired_count = detector.repair(corrupted)
    protected = evaluate(repaired, stream)
    return plain, protected, repaired_count


def inference_mitigation_plan(
    workload: str = "gridworld",
    scale=None,
    ber_values: Optional[Sequence[float]] = None,
    margin: float = 0.10,
    cache: Optional[PolicyCache] = None,
    repeats: int = 3,
) -> CampaignPlan:
    """Range-based anomaly detection during inference (paper Fig. 8).

    The detector is calibrated on the clean trained policy; each (BER,
    repeat) cell evaluates the corrupted policy with and without the repair
    step.  The metadata records the largest mitigation/no-mitigation
    improvement factor (the paper reports up to 3.3× for GridWorld and 1.4×
    for DroneNav).
    """
    if workload not in ("gridworld", "drone"):
        raise ValueError(f"workload must be 'gridworld' or 'drone', got {workload!r}")
    cache = cache or default_cache()
    if workload == "gridworld":
        scale = scale or GridWorldScale.fast()
        ber_values = tuple(ber_values) if ber_values is not None else (0.0, 0.005, 0.01, 0.02)
        policy = cache.gridworld_consensus_ref(scale)
        walks = {"attempts": max(2, scale.evaluation_attempts // 2)}
        metric = "success rate (%)"
    else:
        scale = scale or DroneScale.fast()
        ber_values = tuple(ber_values) if ber_values is not None else (0.0, 1e-3, 1e-2, 1e-1)
        policy = cache.drone_policy_ref(scale)
        walks = {}
        metric = "safe flight distance (m)"

    experiment_id = "fig8a" if workload == "gridworld" else "fig8b"
    cells = [
        CellTask(
            experiment_id=experiment_id,
            key=("ber", ber_index, "repeat", repeat),
            fn=inference_mitigation_cell,
            kwargs={
                "workload": workload,
                "scale": scale,
                "policy": policy,
                "margin": margin,
                "ber": ber,
                "ber_index": ber_index,
                "repeat": repeat,
                **walks,
            },
        )
        for ber_index, ber in enumerate(ber_values)
        for repeat in range(repeats)
    ]

    def merge(outputs):
        series: Dict[str, list] = {"no_mitigation": [], "mitigation": []}
        repaired_counts = []
        for ber_index in range(len(ber_values)):
            cell_outputs = outputs[ber_index * repeats : (ber_index + 1) * repeats]
            plain = [cell[0] for cell in cell_outputs]
            protected = [cell[1] for cell in cell_outputs]
            repaired_counts.extend(cell[2] for cell in cell_outputs)
            series["no_mitigation"].append(float(np.mean(plain)))
            series["mitigation"].append(float(np.mean(protected)))
        result = SweepResult(
            title=f"Inference anomaly detection, {workload} (Fig. 8)",
            metric=metric,
            x_axis="BER",
            x_values=[f"{ber:g}" for ber in ber_values],
            series=series,
            metadata={"margin": margin, "repeats": repeats,
                      "total_repaired_values": int(np.sum(repaired_counts))},
        )
        improvement = summarize_improvement(result, "no_mitigation", "mitigation")
        result.metadata["max_improvement_factor"] = improvement
        return result

    return CampaignPlan(experiment_id=experiment_id, cells=cells, merge=merge)
