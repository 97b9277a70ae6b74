"""DroneNav training-time experiments (paper Fig. 5 and Fig. 6)."""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Sequence

from repro.core.config import DroneScale
from repro.core.fault_callbacks import make_training_fault
from repro.core.pretrained import PolicyCache, default_cache
from repro.core.results import HeatmapResult, SweepResult
from repro.core.workloads import build_drone_frl_system, build_drone_single_system
from repro.federated import CommunicationSchedule
from repro.federated.lockstep import (
    average_flight_distance_group_lockstep,
    train_group_lockstep,
)
from repro.runtime.cells import CampaignPlan, CellTask, accumulate_heatmap, grid_merge_order
from repro.runtime.vectorize import register_group_runner
from repro.utils.rng import RngFactory

DEFAULT_DRONE_BERS = (0.0, 1e-3, 1e-2, 1e-1)
DEFAULT_EPISODE_FRACTIONS = (0.25, 0.75)


def _injection_episodes(scale: DroneScale, fractions: Sequence[float]) -> list:
    total = max(1, scale.fine_tune_episodes)
    return sorted({max(0, min(total - 1, int(round(total * f)))) for f in fractions})


def _build_system(scale: DroneScale, location: str, initial_state, seed_offset: int):
    if location == "single":
        return build_drone_single_system(
            scale, seed_offset=seed_offset, initial_state=initial_state, environment_count=1
        )
    return build_drone_frl_system(scale, seed_offset=seed_offset, initial_state=initial_state)


def _training_cell_parts(
    location: str,
    scale: DroneScale,
    pretrained: dict,
    ber: float,
    injection_episode: int,
    repeat: int,
    row: int,
    column: int,
) -> tuple:
    """The (system, callbacks) pair of one :func:`drone_training_cell`."""
    system = _build_system(scale, location, pretrained, seed_offset=repeat)
    fault_location = "server" if location == "server" else "agent"
    callback = make_training_fault(
        location=fault_location,
        bit_error_rate=ber,
        injection_episode=injection_episode,
        datatype=scale.datatype,
        rng=RngFactory(scale.seed).stream("drone-fi", repeat, row, column),
    )
    return system, [callback]


def drone_training_cell(
    location: str,
    scale: DroneScale,
    pretrained: dict,
    ber: float,
    injection_episode: int,
    repeat: int,
    row: int,
    column: int,
) -> float:
    """One (repeat, BER, injection-episode) cell of the Fig. 5 heatmaps."""
    system, callbacks = _training_cell_parts(
        location, scale, pretrained, ber, injection_episode, repeat, row, column
    )
    system.train(scale.fine_tune_episodes, callbacks=callbacks)
    return system.average_flight_distance()


def drone_training_plan(
    location: str = "server",
    scale: Optional[DroneScale] = None,
    ber_values: Sequence[float] = DEFAULT_DRONE_BERS,
    episode_fractions: Sequence[float] = DEFAULT_EPISODE_FRACTIONS,
    cache: Optional[PolicyCache] = None,
) -> CampaignPlan:
    """Safe flight distance over (BER × injection episode) during fine-tuning.

    ``location`` selects the paper's panels: ``"agent"`` (Fig. 5a),
    ``"server"`` (Fig. 5b) and ``"single"`` (Fig. 5c).  Fine-tuning starts
    from the offline pre-trained policy, matching the paper's
    transfer-learning setup.  The behaviour-cloned baseline policy is trained
    (or found) in the disk-backed policy cache once, at plan time; cells
    reference it by :class:`~repro.runtime.residency.PolicyRef`, so each
    pooled worker decodes it once instead of unpickling it per cell.
    """
    scale = scale or DroneScale.fast()
    if location not in ("agent", "server", "single"):
        raise ValueError(f"location must be 'agent', 'server' or 'single', got {location!r}")
    cache = cache or default_cache()
    ber_values = tuple(ber_values)
    pretrained = cache.drone_policy_ref(scale)
    episodes = _injection_episodes(scale, episode_fractions)
    experiment_id = {"agent": "fig5a", "server": "fig5b", "single": "fig5c"}[location]
    cells = [
        CellTask(
            experiment_id=experiment_id,
            key=("repeat", repeat, "ber", row, "episode", column),
            fn=drone_training_cell,
            kwargs={
                "location": location,
                "scale": scale,
                "pretrained": pretrained,
                "ber": ber_values[row],
                "injection_episode": episodes[column],
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
        title = {
            "agent": "DroneNav fine-tuning, agent faults (Fig. 5a)",
            "server": "DroneNav fine-tuning, server faults (Fig. 5b)",
            "single": "DroneNav fine-tuning, single-drone system (Fig. 5c)",
        }[location]
        return HeatmapResult(
            title=title,
            metric="safe flight distance (m)",
            row_axis="BER",
            column_axis="episode",
            row_labels=[f"{ber:g}" for ber in ber_values],
            column_labels=list(episodes),
            values=values,
            metadata={"location": location},
        )

    return CampaignPlan(experiment_id=experiment_id, cells=cells, merge=merge)


def _count_cell_parts(
    scale: DroneScale, count: int, location: str, ber: float, ber_index: int, pretrained: dict
) -> tuple:
    """The (system, callbacks) pair of one :func:`drone_count_cell`."""
    system = build_drone_frl_system(scale.with_drones(count), initial_state=pretrained)
    callback = make_training_fault(
        location=location,
        bit_error_rate=ber,
        injection_episode=max(0, scale.fine_tune_episodes // 2),
        datatype=scale.datatype,
        rng=RngFactory(scale.seed).stream("count", count, location, ber_index),
    )
    return system, [callback]


def drone_count_cell(
    scale: DroneScale,
    count: int,
    location: str,
    ber: float,
    ber_index: int,
    pretrained: dict,
) -> float:
    """One (drone count, fault location, BER) point of the Fig. 6a sweep."""
    system, callbacks = _count_cell_parts(scale, count, location, ber, ber_index, pretrained)
    system.train(scale.fine_tune_episodes, callbacks=callbacks)
    return system.average_flight_distance()


def drone_count_plan(
    scale: Optional[DroneScale] = None,
    drone_counts: Sequence[int] = (2, 4, 6),
    ber_values: Sequence[float] = (0.0, 1e-2, 1e-1),
    cache: Optional[PolicyCache] = None,
) -> CampaignPlan:
    """Flight distance vs BER per swarm size and fault location (Fig. 6a).

    One cell per (drone count, fault location, BER); the merge gives one
    series per (drone count, fault location) pair.  More drones smooth agent
    faults more strongly and generalize better under server faults.  Every
    swarm size gets its own behaviour-cloned baseline, trained (or found) in
    the policy cache at plan time and referenced from the cells, so a pool
    spreads the per-point fine-tuning runs without ever retraining a baseline
    in a worker.
    """
    scale = scale or DroneScale.fast()
    cache = cache or default_cache()
    drone_counts = tuple(drone_counts)
    ber_values = tuple(ber_values)
    pretrained_refs = {
        count: cache.drone_policy_ref(scale.with_drones(count)) for count in drone_counts
    }
    locations = ("server", "agent")
    cells = [
        CellTask(
            experiment_id="fig6a",
            key=("drones", count, "location", location, "ber", ber_index),
            fn=drone_count_cell,
            kwargs={
                "scale": scale,
                "count": count,
                "location": location,
                "ber": ber,
                "ber_index": ber_index,
                "pretrained": pretrained_refs[count],
            },
        )
        for count in drone_counts
        for location in locations
        for ber_index, ber in enumerate(ber_values)
    ]

    def merge(outputs):
        series: Dict[str, list] = {}
        cursor = iter(outputs)
        for count in drone_counts:
            for location in locations:
                series[f"({count},{location})"] = [next(cursor) for _ in ber_values]
        return SweepResult(
            title="Resilience vs number of drones (Fig. 6a)",
            metric="safe flight distance (m)",
            x_axis="BER",
            x_values=[f"{ber:g}" for ber in ber_values],
            series=series,
            metadata={"drone_counts": list(drone_counts)},
        )

    return CampaignPlan(experiment_id="fig6a", cells=cells, merge=merge)


_INTERVAL_SCENARIOS = ("no_fault", "agent_fault", "server_fault")


def _interval_cell_parts(
    scale: DroneScale,
    multiplier: int,
    scenario: str,
    fault_ber: float,
    switch_episode: int,
    injection_episode: int,
    pretrained: dict,
) -> tuple:
    """The (system, callbacks) pair of one :func:`communication_interval_cell`."""
    schedule = CommunicationSchedule(
        base_interval=scale.communication_interval,
        multiplier=multiplier,
        switch_episode=switch_episode,
    )
    system = build_drone_frl_system(scale, initial_state=pretrained, schedule=schedule)
    callbacks = []
    if scenario != "no_fault":
        location = "agent" if scenario == "agent_fault" else "server"
        callbacks.append(
            make_training_fault(
                location=location,
                bit_error_rate=fault_ber,
                injection_episode=injection_episode,
                datatype=scale.datatype,
                rng=RngFactory(scale.seed).stream("interval", multiplier, scenario),
            )
        )
    return system, callbacks


def communication_interval_cell(
    scale: DroneScale,
    multiplier: int,
    scenario: str,
    fault_ber: float,
    switch_episode: int,
    injection_episode: int,
    pretrained: dict,
) -> tuple:
    """One (interval multiplier, fault scenario) run of the Fig. 6b study.

    Returns ``(flight_distance, communication_rounds)``; the merge step only
    uses the round count from the ``no_fault`` scenario, matching the
    historical serial loop.
    """
    system, callbacks = _interval_cell_parts(
        scale, multiplier, scenario, fault_ber, switch_episode, injection_episode, pretrained
    )
    log = system.train(scale.fine_tune_episodes, callbacks=callbacks)
    distance = system.average_flight_distance()
    return distance, float(log.communication_count)


def communication_interval_plan(
    scale: Optional[DroneScale] = None,
    interval_multipliers: Sequence[int] = (1, 2, 3),
    fault_ber: float = 1e-2,
    cache: Optional[PolicyCache] = None,
) -> CampaignPlan:
    """Resilience / communication-cost trade-off of the interval (Fig. 6b).

    The communication interval is multiplied by each factor after one third
    of the fine-tuning episodes (the paper switches after the 2000th
    episode).  One cell per (multiplier, scenario) measures the no-fault,
    agent-fault or server-fault flight distance along with the number of
    communication rounds.
    """
    scale = scale or DroneScale.fast()
    cache = cache or default_cache()
    interval_multipliers = tuple(interval_multipliers)
    pretrained = cache.drone_policy_ref(scale)
    switch_episode = max(1, scale.fine_tune_episodes // 3)
    injection_episode = max(switch_episode, scale.fine_tune_episodes - 2)
    cells = [
        CellTask(
            experiment_id="fig6b",
            key=("multiplier", multiplier, "scenario", scenario),
            fn=communication_interval_cell,
            kwargs={
                "scale": scale,
                "multiplier": multiplier,
                "scenario": scenario,
                "fault_ber": fault_ber,
                "switch_episode": switch_episode,
                "injection_episode": injection_episode,
                "pretrained": pretrained,
            },
        )
        for multiplier in interval_multipliers
        for scenario in _INTERVAL_SCENARIOS
    ]

    def merge(outputs):
        series: Dict[str, list] = {
            "no_fault": [],
            "agent_fault": [],
            "server_fault": [],
            "communication_rounds": [],
        }
        cursor = iter(outputs)
        for _multiplier in interval_multipliers:
            for scenario in _INTERVAL_SCENARIOS:
                distance, rounds = next(cursor)
                series[scenario].append(distance)
                if scenario == "no_fault":
                    series["communication_rounds"].append(rounds)
        return SweepResult(
            title="Communication interval trade-off (Fig. 6b)",
            metric="safe flight distance (m) / rounds",
            x_axis="interval multiplier",
            x_values=[f"{m}x" for m in interval_multipliers],
            series=series,
            metadata={"fault_ber": fault_ber, "switch_episode": switch_episode},
        )

    return CampaignPlan(experiment_id="fig6b", cells=cells, merge=merge)


# ------------------------------------------------------------ vectorized groups
# Each group runner builds every cell's system and fault callback with the
# cell's own builder (independent SeedSequence streams make build order
# irrelevant), then trains and evaluates all cells through the one FRL
# training loop: the cells' drones train as lanes, one bundle per (env
# config, agent config), so cells with different flight horizons share the
# group as separate bundles, and a network an activation fault hooks runs
# its episode serially beside them.


def _run_group(kwargs_list, build_parts, with_rounds: bool = False):
    """Train and evaluate a group of cells as lanes of one training loop."""
    systems, callbacks = [], []
    for kwargs in kwargs_list:
        system, cell_callbacks = build_parts(**kwargs)
        systems.append(system)
        callbacks.append(cell_callbacks)
    episodes = [kwargs["scale"].fine_tune_episodes for kwargs in kwargs_list]
    logs = train_group_lockstep(systems, callbacks, episodes)
    distances = average_flight_distance_group_lockstep(systems)
    if with_rounds:
        return [
            (distance, float(log.communication_count))
            for distance, log in zip(distances, logs)
        ]
    return distances


_drone_training_group = partial(_run_group, build_parts=_training_cell_parts)
_drone_count_group = partial(_run_group, build_parts=_count_cell_parts)
_communication_interval_group = partial(
    _run_group, build_parts=_interval_cell_parts, with_rounds=True
)


register_group_runner(drone_training_cell, _drone_training_group)
register_group_runner(drone_count_cell, _drone_count_group)
register_group_runner(communication_interval_cell, _communication_interval_group)
