"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at a
CPU-friendly scale (see DESIGN.md §2 for the substitutions and EXPERIMENTS.md
for the paper-vs-measured comparison).  Rendered results are written to
``benchmarks/results/`` so the artifacts survive pytest's output capture.
Paper-scale runs are available by swapping the scales below for
``GridWorldScale.paper()`` / ``DroneScale.paper()``.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.config import DroneScale, GridWorldScale
from repro.core.pretrained import PolicyCache
from repro.utils.serialization import save_json

RESULTS_DIR = Path(__file__).resolve().parent / "results"

# GridWorld benchmark scale: small enough for seconds-per-cell training runs,
# large enough that the trained policy solves most mazes.
BENCH_GRIDWORLD_SCALE = GridWorldScale(
    agent_count=3,
    episodes=100,
    max_steps=60,
    hidden_sizes=(20, 20),
    epsilon_decay_episodes=60,
    evaluation_attempts=8,
)

# DroneNav benchmark scale: 2 drones over 450 m corridors with a small CNN.
BENCH_DRONE_SCALE = DroneScale(
    drone_count=2,
    max_steps=220,
    corridor_length=450.0,
    fine_tune_episodes=4,
    learning_rate=2e-4,
    pretrain_collection_episodes=3,
    pretrain_epochs=8,
    pretrain_dagger_iterations=3,
)

# Coarse sweep grids used by the heatmap benchmarks.
GRIDWORLD_BERS = (0.0, 0.01, 0.02)
GRIDWORLD_EPISODE_FRACTIONS = (0.5, 0.9)
DRONE_BERS = (0.0, 1e-2, 1e-1)
DRONE_EPISODE_FRACTIONS = (0.5,)

# One shared on-disk cache so the baseline policies are trained exactly once
# per benchmark session; campaign workers read the same directory.
BENCH_CACHE = PolicyCache(Path(__file__).resolve().parent / ".bench_cache")


def run_plan(plan, workers: int = 1, vectorize: str = "auto"):
    """Execute a campaign plan with ``workers`` processes (1 = serial).

    The campaign runner merges cell outputs in deterministic plan order, so
    the result is byte-identical at any worker count and any ``vectorize``
    mode — benchmarks use both knobs to trade wall clock only.  Scales and
    cache are baked into the plan by its builder; the runner only supplies
    the executor.
    """
    from repro.runtime.runner import CampaignRunner

    return CampaignRunner(workers=workers, vectorize=vectorize).run_plan(plan)


def save_result(name: str, result) -> None:
    """Persist a rendered result (text + JSON) under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    text = result.render() if hasattr(result, "render") else str(result)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf8")
    if hasattr(result, "as_dict"):
        save_json(RESULTS_DIR / f"{name}.json", result.as_dict())
    print(f"\n=== {name} ===\n{text}\n")
