"""Ablations of the design choices called out in DESIGN.md §5.

These are not paper figures; they probe the sensitivity of the mitigation
schemes to their hyper-parameters (anomaly-detection margin, checkpoint
cadence, smoothing-average weight).
"""

import numpy as np

from benchmarks._common import BENCH_CACHE, BENCH_GRIDWORLD_SCALE, run_plan, save_result
from repro.core.experiments.mitigation_experiments import (
    inference_mitigation_plan,
    training_mitigation_plan,
)
from repro.core.results import SweepResult
from repro.core.workloads import build_gridworld_frl_system
from repro.federated import AlphaSchedule, FederatedServer


def test_ablation_anomaly_margin(benchmark, campaign_workers):
    """Detection margin: a tighter margin repairs more values but risks false alarms."""

    def run():
        series = {}
        for margin in (0.05, 0.10, 0.30):
            plan = inference_mitigation_plan(
                "gridworld",
                scale=BENCH_GRIDWORLD_SCALE,
                ber_values=(0.01,),
                margin=margin,
                cache=BENCH_CACHE,
                repeats=2,
            )
            result = run_plan(plan, workers=campaign_workers)
            series[f"margin={margin}"] = [result.series["mitigation"][0]]
        return SweepResult(
            title="Ablation: anomaly-detection margin",
            metric="success rate (%) at BER=1%",
            x_axis="scenario",
            x_values=["mitigated"],
            series=series,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_anomaly_margin", result)
    assert all(0.0 <= values[0] <= 100.0 for values in result.series.values())


def test_ablation_checkpoint_interval(benchmark, campaign_workers):
    """Checkpoint cadence: rarer checkpoints still recover, with staler state."""

    def run():
        series = {}
        for interval in (1, 5):
            plan = training_mitigation_plan(
                "gridworld",
                "server",
                scale=BENCH_GRIDWORLD_SCALE,
                ber_values=(0.02,),
                episode_fractions=(0.6,),
                consecutive_episodes=4,
                checkpoint_interval=interval,
                cache=BENCH_CACHE,
            )
            heatmap = run_plan(plan, workers=campaign_workers)
            series[f"every {interval} rounds"] = [float(heatmap.values[0, 0])]
        return SweepResult(
            title="Ablation: server checkpoint cadence",
            metric="success rate (%) under 2% BER server fault",
            x_axis="scenario",
            x_values=["protected"],
            series=series,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_checkpoint_interval", result)
    assert all(values[0] >= 0.0 for values in result.series.values())


def test_ablation_smoothing_alpha(benchmark):
    """Smoothing weight: consensus-heavy aggregation should not collapse training."""

    def run():
        series = {}
        for alpha, decay in ((0.9, 0.99), (0.5, 0.9)):
            system = build_gridworld_frl_system(BENCH_GRIDWORLD_SCALE)
            system.server = FederatedServer(AlphaSchedule(initial_alpha=alpha, decay=decay))
            system.train(BENCH_GRIDWORLD_SCALE.episodes)
            series[f"alpha0={alpha}"] = [
                system.average_success_rate(attempts=BENCH_GRIDWORLD_SCALE.evaluation_attempts)
                * 100.0
            ]
        return SweepResult(
            title="Ablation: smoothing-average weight",
            metric="success rate (%)",
            x_axis="scenario",
            x_values=["fault-free"],
            series=series,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_smoothing_alpha", result)
    values = np.array([values[0] for values in result.series.values()])
    assert (values > 30.0).all()
