"""GridWorld training-time experiments (paper Fig. 3 and Table I)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.config import GridWorldScale
from repro.core.fault_callbacks import make_training_fault
from repro.core.pretrained import PolicyCache, default_cache
from repro.core.results import HeatmapResult, SweepResult, TableResult
from repro.core.workloads import build_gridworld_frl_system, build_gridworld_single_system
from repro.quant.datatypes import resolve_datatype
from repro.rl.policy import consensus_policy_std
from repro.runtime.cells import CampaignPlan, CellTask, accumulate_heatmap, grid_merge_order
from repro.utils.bitops import count_ones
from repro.utils.rng import RngFactory

DEFAULT_BERS = (0.0, 0.005, 0.01, 0.02)
DEFAULT_EPISODE_FRACTIONS = (0.3, 0.6, 0.9)


def _injection_episodes(scale: GridWorldScale, fractions: Sequence[float]) -> list:
    return sorted({max(0, min(scale.episodes - 1, int(round(scale.episodes * f)))) for f in fractions})


def _build_system(scale: GridWorldScale, location: str, seed_offset: int):
    if location == "single":
        return build_gridworld_single_system(scale, seed_offset=seed_offset)
    return build_gridworld_frl_system(scale, seed_offset=seed_offset)


def gridworld_training_cell(
    location: str,
    scale: GridWorldScale,
    ber: float,
    injection_episode: int,
    repeat: int,
    row: int,
    column: int,
) -> float:
    """One (repeat, BER, injection-episode) cell of the Fig. 3 heatmaps.

    Builds a fresh system, trains it with the fault callback and returns the
    evaluated success rate.  All randomness comes from streams keyed by the
    cell coordinates, so the cell yields the same value no matter which
    process executes it.
    """
    system = _build_system(scale, location, seed_offset=repeat)
    fault_location = "server" if location == "server" else "agent"
    callback = make_training_fault(
        location=fault_location,
        bit_error_rate=ber,
        injection_episode=injection_episode,
        datatype=scale.datatype,
        rng=RngFactory(scale.seed).stream("fi", repeat, row, column),
    )
    system.train(scale.episodes, callbacks=[callback])
    return system.average_success_rate(attempts=scale.evaluation_attempts)


def gridworld_training_plan(
    location: str = "server",
    scale: Optional[GridWorldScale] = None,
    ber_values: Sequence[float] = DEFAULT_BERS,
    episode_fractions: Sequence[float] = DEFAULT_EPISODE_FRACTIONS,
) -> CampaignPlan:
    """Success rate over (BER × fault-injection episode) during FRL training.

    ``location`` selects the paper's three panels: ``"agent"`` (Fig. 3a),
    ``"server"`` (Fig. 3b) and ``"single"`` — the single-agent system with
    the fault applied directly to its policy (Fig. 3c).  Each (repeat, BER,
    injection episode) is one :func:`gridworld_training_cell`.
    """
    scale = scale or GridWorldScale.fast()
    if location not in ("agent", "server", "single"):
        raise ValueError(f"location must be 'agent', 'server' or 'single', got {location!r}")
    ber_values = tuple(ber_values)
    episodes = _injection_episodes(scale, episode_fractions)
    experiment_id = {"agent": "fig3a", "server": "fig3b", "single": "fig3c"}[location]
    cells = [
        CellTask(
            experiment_id=experiment_id,
            key=("repeat", repeat, "ber", row, "episode", column),
            fn=gridworld_training_cell,
            kwargs={
                "location": location,
                "scale": scale,
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
        values = values / scale.repeats * 100.0
        title = {
            "agent": "GridWorld training, agent faults (Fig. 3a)",
            "server": "GridWorld training, server faults (Fig. 3b)",
            "single": "GridWorld training, single-agent system (Fig. 3c)",
        }[location]
        return HeatmapResult(
            title=title,
            metric="success rate (%)",
            row_axis="BER",
            column_axis="episode",
            row_labels=[f"{ber:.3%}" for ber in ber_values],
            column_labels=list(episodes),
            values=values,
            metadata={
                "location": location,
                "scale": "fast" if scale == GridWorldScale.fast() else "custom",
            },
        )

    return CampaignPlan(experiment_id=experiment_id, cells=cells, merge=merge)


_CONVERGENCE_LOCATIONS = ("agent", "server")


def convergence_cell(
    scale: GridWorldScale,
    location: str,
    ber: float,
    injection_episode: int,
    recovery_success_rate: float,
    evaluation_interval: int,
    max_extra_episodes: int,
) -> float:
    """One (fault location, BER) chain of Fig. 3e: episodes until recovery.

    A fault is injected at ``injection_episode``; training then continues and
    the unified policy is evaluated every ``evaluation_interval`` episodes
    until its success rate reaches ``recovery_success_rate`` or
    ``max_extra_episodes`` run out.  Returns the total number of episodes
    (training + recovery).  The chain is sequential, but it builds its own
    system and draws its faults from a stream keyed by (location, BER), so
    chains are independent cells.
    """
    system = build_gridworld_frl_system(scale)
    callback = make_training_fault(
        location=location,
        bit_error_rate=ber,
        injection_episode=injection_episode,
        datatype=scale.datatype,
        rng=RngFactory(scale.seed).stream("conv", location, int(ber * 1e6)),
    )
    system.train(scale.episodes, callbacks=[callback])
    extra = 0
    while extra < max_extra_episodes:
        success = system.average_success_rate(attempts=scale.evaluation_attempts)
        if success >= recovery_success_rate:
            break
        system.train(evaluation_interval, start_episode=scale.episodes + extra)
        extra += evaluation_interval
    return float(scale.episodes + extra)


def convergence_plan(
    scale: Optional[GridWorldScale] = None,
    ber_values: Sequence[float] = (0.005, 0.01, 0.02),
    injection_fraction: float = 0.9,
    recovery_success_rate: float = 0.96,
    evaluation_interval: int = 10,
    max_extra_episodes: Optional[int] = None,
) -> CampaignPlan:
    """Episodes needed to recover after a late fault (paper Fig. 3e).

    The fault lands at ``injection_fraction`` of training (default: the 90 %
    episode).  One :func:`convergence_cell` per fault location (agent, then
    server) and BER; the merge gives one series per location.
    """
    scale = scale or GridWorldScale.fast()
    ber_values = tuple(ber_values)
    max_extra_episodes = max_extra_episodes or scale.episodes
    injection_episode = max(
        0, min(scale.episodes - 1, int(round(scale.episodes * injection_fraction)))
    )
    cells = [
        CellTask(
            experiment_id="fig3e",
            key=("location", location, "ber", index),
            fn=convergence_cell,
            kwargs={
                "scale": scale,
                "location": location,
                "ber": ber,
                "injection_episode": injection_episode,
                "recovery_success_rate": recovery_success_rate,
                "evaluation_interval": evaluation_interval,
                "max_extra_episodes": max_extra_episodes,
            },
        )
        for location in _CONVERGENCE_LOCATIONS
        for index, ber in enumerate(ber_values)
    ]

    def merge(outputs):
        count = len(ber_values)
        return SweepResult(
            title="Episodes to converge after late fault (Fig. 3e)",
            metric="episodes",
            x_axis="BER",
            x_values=[f"{ber:.3%}" for ber in ber_values],
            series={
                location: list(outputs[position * count : (position + 1) * count])
                for position, location in enumerate(_CONVERGENCE_LOCATIONS)
            },
            metadata={
                "injection_episode": injection_episode,
                "recovery_success_rate": recovery_success_rate,
            },
        )

    return CampaignPlan(experiment_id="fig3e", cells=cells, merge=merge)


def policy_std_cell(scale: GridWorldScale, agent_count: int) -> list:
    """One Table I row: train a system of ``agent_count`` agents, report std."""
    if agent_count == 1:
        system = build_gridworld_single_system(scale, environment_count=1)
        system.train(scale.episodes)
        label = "Single-agent"
    else:
        system = build_gridworld_frl_system(scale.with_agents(agent_count))
        system.train(scale.episodes)
        label = f"Multi-agent (n={agent_count})"
    return [label, consensus_policy_std(system.consensus_state())]


def policy_std_plan(
    scale: Optional[GridWorldScale] = None,
    agent_counts: Sequence[int] = (1, 4, 8, 12),
) -> CampaignPlan:
    """Decompose Table I into one cell per system size."""
    scale = scale or GridWorldScale.fast()
    agent_counts = tuple(agent_counts)
    if any(count <= 0 for count in agent_counts):
        raise ValueError("agent counts must be positive")
    cells = [
        CellTask(
            experiment_id="table1",
            key=("agents", count),
            fn=policy_std_cell,
            kwargs={"scale": scale, "agent_count": count},
        )
        for count in agent_counts
    ]

    def merge(outputs):
        return TableResult(
            title="Std of the consensus policy (Table I)",
            headers=["system", "policy std"],
            rows=list(outputs),
            metadata={"episodes": scale.episodes},
        )

    return CampaignPlan(experiment_id="table1", cells=cells, merge=merge)


def weight_bits_cell(consensus: dict, names: Optional[list], datatype: str) -> list:
    """Bit statistics of the named parameter tensors (all of them for ``None``).

    Returns ``[min, max, one_bit_count, value_count]`` — integer bit counts
    rather than fractions, so per-parameter outputs merge back into the
    whole-policy breakdown without floating-point error.
    """
    selected = consensus if names is None else {name: consensus[name] for name in names}
    flat = np.concatenate(
        [np.asarray(value, dtype=np.float64).reshape(-1) for value in selected.values()]
    )
    resolved = resolve_datatype(datatype)
    codes, _context = resolved.encode(flat)
    return [
        float(flat.min()),
        float(flat.max()),
        count_ones(codes, resolved.bit_width),
        int(flat.size),
    ]


def weight_distribution_plan(
    scale: Optional[GridWorldScale] = None,
    datatype: Optional[str] = None,
    cache: Optional[PolicyCache] = None,
) -> CampaignPlan:
    """Decompose Fig. 3d into one cell per parameter tensor of the policy.

    The fixed-point Q formats encode elementwise, so per-parameter bit counts
    sum exactly to the whole-policy breakdown.  The int8 affine codec derives
    its scale from the *whole* tensor being encoded — slicing would change the
    encoding — so int8 keeps a single whole-policy cell.
    """
    scale = scale or GridWorldScale.fast()
    datatype = datatype or scale.datatype
    cache = cache or default_cache()
    # Training (when needed) happens here, in the parent; cells only read.
    parameter_names = sorted(cache.gridworld_policies(scale)["consensus"])
    consensus_ref = cache.gridworld_consensus_ref(scale)
    resolved = resolve_datatype(datatype)
    slices = (
        [None] if resolved.name == "int8" else [[name] for name in parameter_names]
    )
    cells = [
        CellTask(
            experiment_id="fig3d",
            key=("parameters", "all" if names is None else names[0]),
            fn=weight_bits_cell,
            kwargs={"consensus": consensus_ref, "names": names, "datatype": datatype},
        )
        for names in slices
    ]

    def merge(outputs):
        minimum = min(output[0] for output in outputs)
        maximum = max(output[1] for output in outputs)
        ones = sum(int(output[2]) for output in outputs)
        total_bits = sum(int(output[3]) for output in outputs) * resolved.bit_width
        one_fraction = ones / total_bits if total_bits else 0.0
        rows = [
            ["min weight", minimum],
            ["max weight", maximum],
            ["0 bits (%)", (1.0 - one_fraction) * 100.0],
            ["1 bits (%)", one_fraction * 100.0],
            ["total bits", float(total_bits)],
        ]
        return TableResult(
            title=f"Policy weight distribution under {datatype} storage (Fig. 3d)",
            headers=["quantity", "value"],
            rows=rows,
            metadata={"datatype": datatype},
        )

    return CampaignPlan(experiment_id="fig3d", cells=cells, merge=merge)
