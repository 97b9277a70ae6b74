"""Fig. 7 — training-time fault recovery with server checkpointing."""

from benchmarks._common import (
    BENCH_CACHE,
    BENCH_DRONE_SCALE,
    BENCH_GRIDWORLD_SCALE,
    GRIDWORLD_EPISODE_FRACTIONS,
    run_plan,
    save_result,
)
from repro.core.experiments.mitigation_experiments import training_mitigation_plan


def test_fig7a_gridworld_checkpointing(benchmark, campaign_workers):
    result = benchmark.pedantic(
        lambda: run_plan(
            training_mitigation_plan(
                "gridworld",
                "server",
                scale=BENCH_GRIDWORLD_SCALE,
                ber_values=(0.0, 0.02),
                episode_fractions=GRIDWORLD_EPISODE_FRACTIONS,
                consecutive_episodes=4,
                checkpoint_interval=3,
                cache=BENCH_CACHE,
            ),
            workers=campaign_workers,
        ),
        rounds=1,
        iterations=1,
    )
    save_result("fig7a", result)
    # With checkpoint recovery the protected success rate stays within a
    # reasonable band of the fault-free row (the paper reports >96 %).
    baseline = result.values[0].mean()
    protected = result.values[-1].mean()
    assert baseline > 40.0
    assert protected >= baseline * 0.5


def test_fig7b_drone_checkpointing(benchmark, campaign_workers):
    result = benchmark.pedantic(
        lambda: run_plan(
            training_mitigation_plan(
                "drone",
                "server",
                scale=BENCH_DRONE_SCALE,
                ber_values=(0.0, 1e-1),
                episode_fractions=(0.5,),
                consecutive_episodes=1,
                checkpoint_interval=1,
                cache=BENCH_CACHE,
            ),
            workers=campaign_workers,
        ),
        rounds=1,
        iterations=1,
    )
    save_result("fig7b", result)
    assert result.values[0, 0] > 50.0
    assert result.values[-1, 0] > 0.0
