"""Fig. 3e — episodes to converge after a fault injected late in training."""

from benchmarks._common import BENCH_GRIDWORLD_SCALE, run_plan, save_result
from repro.core.experiments.gridworld_training import convergence_plan


def test_fig3e_convergence(benchmark, campaign_workers):
    result = benchmark.pedantic(
        lambda: run_plan(
            convergence_plan(
                scale=BENCH_GRIDWORLD_SCALE,
                ber_values=(0.005, 0.02),
                injection_fraction=0.9,
                recovery_success_rate=0.85,
                evaluation_interval=10,
                max_extra_episodes=60,
            ),
            workers=campaign_workers,
        ),
        rounds=1,
        iterations=1,
    )
    save_result("fig3e", result)
    assert set(result.series) == {"agent", "server"}
    # Recovery always needs at least the nominal training length, and the
    # paper's trend is that server faults take at least as long to shake off.
    for series in result.series.values():
        assert all(value >= BENCH_GRIDWORLD_SCALE.episodes for value in series)
    assert sum(result.series["server"]) >= sum(result.series["agent"]) - 20
