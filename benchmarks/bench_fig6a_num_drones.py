"""Fig. 6a — resilience vs number of drones under agent/server faults.

Runs as a campaign of independent (drone count, fault location, BER) cells;
pass ``--workers N`` to pytest to fan the cells out over N processes and
``--vectorize auto|on|off`` to pick the lockstep cell-group evaluation mode
(the merged result is byte-identical to the serial run either way).

``test_fig6a_vectorized_speedup`` additionally measures the single-worker
vectorized-vs-serial wall-clock ratio on this multi-cell grid and records it
to ``benchmarks/results/BENCH_fig6a_vectorize.json`` — the number
``docs/PERFORMANCE.md``'s performance model predicts and CI's bench-smoke
job uploads with its artifacts.
"""

import json
import time

from benchmarks._common import (
    BENCH_CACHE,
    BENCH_DRONE_SCALE,
    RESULTS_DIR,
    run_plan,
    save_result,
)
from repro.core.experiments.drone_training import drone_count_plan
from repro.utils.serialization import save_json


def _plan():
    return drone_count_plan(
        scale=BENCH_DRONE_SCALE,
        drone_counts=(2, 4),
        ber_values=(0.0, 1e-2),
        cache=BENCH_CACHE,
    )


def test_fig6a_drone_counts(benchmark, campaign_workers, campaign_vectorize):
    plan = _plan()
    result = benchmark.pedantic(
        run_plan,
        args=(plan,),
        kwargs={"workers": campaign_workers, "vectorize": campaign_vectorize},
        rounds=1,
        iterations=1,
    )
    save_result("fig6a", result)
    assert set(result.series) == {"(2,server)", "(2,agent)", "(4,server)", "(4,agent)"}
    # Every configuration must fly a meaningful distance in the no-fault column.
    for series in result.series.values():
        assert series[0] > 30.0


def test_fig6a_vectorized_speedup():
    """Single-worker vectorized vs serial: identical bytes, ≥2× less wall clock.

    Both runs reuse the session policy cache, so the measured window is pure
    cell evaluation.  The ratio is recorded unconditionally (CI logs it even
    on one-CPU runners, where ``--workers`` cannot help but lockstep can).
    """
    run_plan(_plan())  # warm the pretrained-policy cache out of the timings

    start = time.perf_counter()
    serial = run_plan(_plan(), vectorize="off")
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    vectorized = run_plan(_plan(), vectorize="on")
    vectorized_seconds = time.perf_counter() - start

    identical = json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
        vectorized.as_dict(), sort_keys=True
    )
    ratio = serial_seconds / vectorized_seconds
    record = {
        "serial_seconds": serial_seconds,
        "vectorized_seconds": vectorized_seconds,
        "ratio": ratio,
        "identical": identical,
        "workers": 1,
        "cells": _plan().cell_count,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    save_json(RESULTS_DIR / "BENCH_fig6a_vectorize.json", record)
    print(f"\nfig6a vectorized-vs-serial: {ratio:.2f}x ({record})")

    assert identical, "vectorized fig6a payload diverged from serial"
    assert ratio >= 2.0, (
        f"expected >=2x single-worker speedup from lockstep evaluation, got "
        f"{ratio:.2f}x ({serial_seconds:.2f}s serial, {vectorized_seconds:.2f}s "
        "vectorized)"
    )
