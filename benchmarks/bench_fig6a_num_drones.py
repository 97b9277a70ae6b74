"""Fig. 6a — resilience vs number of drones under agent/server faults.

Runs as a campaign of independent (drone count, fault location, BER) cells;
pass ``--workers N`` to pytest to fan the cells out over N processes and
``--vectorize auto|on|off`` to pick the lockstep cell-group evaluation mode
(the merged result is byte-identical to the serial run either way).

``test_fig6a_vectorized_speedup`` additionally measures the single-worker
wall-clock ratio of the serial training loop (every drone trained one
episode at a time) to the vectorized cell groups on this multi-cell grid,
records ``--vectorize off`` (each cell on its own, its drones still trained
as lanes) beside them, and writes
``benchmarks/results/BENCH_fig6a_vectorize.json`` — the number
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
from repro.federated import FRLSystem
from repro.utils.serialization import save_json
from tests.serial_oracle import serial_train


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


def test_fig6a_vectorized_speedup(monkeypatch):
    """Single-worker vectorized groups vs the serial loop: identical bytes, ≥2× less wall clock.

    The baseline runs every cell with ``FRLSystem.train`` replaced by the
    serial training loop the tests keep as their reference
    (``tests/serial_oracle.py``), so it measures what lockstep training
    saves.  ``vectorize="off"`` runs each cell on its own, its drones still
    trained as lanes, so its time is recorded beside the two, not bounded.
    All runs reuse the session policy cache, so the measured window is pure
    cell evaluation.  The ratio is recorded unconditionally (CI logs it even
    on one-CPU runners, where ``--workers`` cannot help but lockstep can).
    """
    run_plan(_plan())  # warm the pretrained-policy cache out of the timings

    with monkeypatch.context() as patch:
        patch.setattr(FRLSystem, "train", serial_train)
        start = time.perf_counter()
        serial = run_plan(_plan(), vectorize="off")
        serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    off = run_plan(_plan(), vectorize="off")
    off_seconds = time.perf_counter() - start

    start = time.perf_counter()
    vectorized = run_plan(_plan(), vectorize="on")
    vectorized_seconds = time.perf_counter() - start

    payloads = [
        json.dumps(result.as_dict(), sort_keys=True) for result in (serial, off, vectorized)
    ]
    identical = len(set(payloads)) == 1
    ratio = serial_seconds / vectorized_seconds
    record = {
        "serial_seconds": serial_seconds,
        "off_seconds": off_seconds,
        "vectorized_seconds": vectorized_seconds,
        "ratio": ratio,
        "off_ratio": off_seconds / vectorized_seconds,
        "identical": identical,
        "workers": 1,
        "cells": _plan().cell_count,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    save_json(RESULTS_DIR / "BENCH_fig6a_vectorize.json", record)
    print(f"\nfig6a vectorized-vs-serial: {ratio:.2f}x ({record})")

    assert identical, "fig6a payloads diverged between the serial loop, off and on"
    assert ratio >= 2.0, (
        f"expected >=2x single-worker speedup from lockstep training, got "
        f"{ratio:.2f}x ({serial_seconds:.2f}s serial, {vectorized_seconds:.2f}s "
        "vectorized)"
    )
