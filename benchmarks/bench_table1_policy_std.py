"""Table I — standard deviation of the consensus policy vs swarm size."""

from benchmarks._common import BENCH_GRIDWORLD_SCALE, run_plan, save_result
from repro.core.experiments.gridworld_training import policy_std_plan


def test_table1_policy_std(benchmark, campaign_workers):
    result = benchmark.pedantic(
        lambda: run_plan(
            policy_std_plan(scale=BENCH_GRIDWORLD_SCALE, agent_counts=(1, 4, 8)),
            workers=campaign_workers,
        ),
        rounds=1,
        iterations=1,
    )
    save_result("table1", result)
    stds = result.column("policy std")
    assert len(stds) == 3
    assert all(0.0 < value < 0.5 for value in stds)
    # Paper trend: the multi-agent consensus policy separates good from bad
    # actions at least as sharply as the single-agent policy.
    assert max(stds[1], stds[2]) >= stds[0] * 0.8
