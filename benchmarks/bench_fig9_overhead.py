"""Fig. 9 — end-to-end overhead of detection vs DMR vs TMR on two drone platforms."""

from benchmarks._common import save_result
from repro.core.experiments.overhead import overhead_plan


def test_fig9_overhead(benchmark):
    result = benchmark.pedantic(lambda: overhead_plan().run_serial(), rounds=3, iterations=1)
    save_result("fig9", result)
    loss = {(row[0], row[1]): row[5] for row in result.rows}
    # Paper claims: the proposed detection scheme costs <2.7 % while TMR costs
    # ~9 % on the AirSim drone and the large majority of the DJI Spark's range.
    assert loss[("AirSim drone", "baseline")] < 0.0  # baseline is cheaper than detection
    assert abs(loss[("AirSim drone", "baseline")]) <= 2.8
    assert loss[("AirSim drone", "tmr")] > 5.0
    assert loss[("DJI Spark", "tmr")] > 50.0
    assert loss[("DJI Spark", "tmr")] > loss[("AirSim drone", "tmr")]
