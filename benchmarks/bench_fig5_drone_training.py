"""Fig. 5a/5b/5c — DroneNav fine-tuning heatmaps (agent / server / single-drone)."""

import pytest

from benchmarks._common import (
    BENCH_CACHE,
    BENCH_DRONE_SCALE,
    DRONE_BERS,
    DRONE_EPISODE_FRACTIONS,
    run_plan,
    save_result,
)
from repro.analysis import check_heatmap_trend
from repro.core.experiments.drone_training import drone_training_plan


def _run(location: str, workers: int):
    plan = drone_training_plan(
        location,
        scale=BENCH_DRONE_SCALE,
        ber_values=DRONE_BERS,
        episode_fractions=DRONE_EPISODE_FRACTIONS,
        cache=BENCH_CACHE,
    )
    return run_plan(plan, workers=workers)


@pytest.mark.parametrize("location,figure", [("agent", "fig5a"), ("server", "fig5b"),
                                             ("single", "fig5c")])
def test_fig5_drone_training(benchmark, campaign_workers, location, figure):
    result = benchmark.pedantic(
        _run, args=(location, campaign_workers), rounds=1, iterations=1
    )
    save_result(figure, result)
    assert result.values.shape == (len(DRONE_BERS), len(DRONE_EPISODE_FRACTIONS))
    # The no-fault row must fly a meaningful distance and the highest-BER row
    # must not beat it (the paper's degradation trend).
    assert result.values[0].mean() > 50.0
    trend = check_heatmap_trend(result, tolerance=0.25)
    save_result(f"{figure}_trend", trend)
    assert trend.holds
