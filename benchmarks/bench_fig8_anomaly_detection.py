"""Fig. 8 — inference-time range-based anomaly detection (GridWorld & DroneNav)."""

from benchmarks._common import (
    BENCH_CACHE,
    BENCH_DRONE_SCALE,
    BENCH_GRIDWORLD_SCALE,
    run_plan,
    save_result,
)
from repro.analysis import check_improvement
from repro.core.experiments.mitigation_experiments import inference_mitigation_plan


def test_fig8a_gridworld_anomaly_detection(benchmark, campaign_workers):
    result = benchmark.pedantic(
        lambda: run_plan(
            inference_mitigation_plan(
                "gridworld",
                scale=BENCH_GRIDWORLD_SCALE,
                ber_values=(0.0, 0.005, 0.01, 0.02),
                cache=BENCH_CACHE,
                repeats=3,
            ),
            workers=campaign_workers,
        ),
        rounds=1,
        iterations=1,
    )
    save_result("fig8a", result)
    check = check_improvement(result, minimum_factor=1.0)
    save_result("fig8a_check", check)
    # The paper reports up to 3.3x; at minimum the mitigation must not hurt,
    # and under faults it should improve the average success rate.
    assert check.holds
    faulty_mean_plain = sum(result.series["no_mitigation"][1:]) / 3
    faulty_mean_protected = sum(result.series["mitigation"][1:]) / 3
    assert faulty_mean_protected >= faulty_mean_plain


def test_fig8b_drone_anomaly_detection(benchmark, campaign_workers):
    result = benchmark.pedantic(
        lambda: run_plan(
            inference_mitigation_plan(
                "drone",
                scale=BENCH_DRONE_SCALE,
                ber_values=(0.0, 1e-3, 1e-2),
                cache=BENCH_CACHE,
                repeats=2,
            ),
            workers=campaign_workers,
        ),
        rounds=1,
        iterations=1,
    )
    save_result("fig8b", result)
    check = check_improvement(result, minimum_factor=1.0)
    save_result("fig8b_check", check)
    assert check.holds
    assert all(value > 0.0 for value in result.series["mitigation"])
