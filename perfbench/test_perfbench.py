"""Self-tests of the benchmark: the span tracer, its layer wrappers and the pins.

Run from the repository root (the workload tests take about a minute):

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, _package_modules, summarize  # noqa: E402


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.now += 1
        with tracer.span("inner"):
            clock.now += 2
        clock.now += 3
        with tracer.span("inner"):
            clock.now += 4
    summary = summarize(tracer.drain())
    assert summary["outer"] == {"calls": 1, "amount": 1, "total_s": 10, "self_s": 4}
    assert summary["inner"] == {"calls": 2, "amount": 2, "total_s": 6, "self_s": 6}


def test_recursive_spans_count_the_outermost_call_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def factorial(n):
        clock.now += 1
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.traced(factorial, "factorial")
    assert traced(3) == 6
    summary = summarize(tracer.drain())["factorial"]
    # Three nested spans of 3, 2 and 1 seconds: one outermost call whose
    # inclusive time is 3, and 1 second of self time per level.
    assert summary == {"calls": 1, "amount": 1, "total_s": 3, "self_s": 3}


def test_amount_hooks_and_raising_calls_still_close_their_span():
    tracer = Tracer(FakeClock())

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.traced(boom, "boom")()
    counted = tracer.traced(lambda items: items, "items", after=lambda _t, _a, out: len(out))
    counted([1, 2, 3])
    summary = summarize(tracer.drain())
    assert summary["boom"]["calls"] == 1
    assert summary["items"]["amount"] == 3


def test_patch_follows_names_rebound_by_import():
    from repro.nn import batched, conv

    original = conv.im2col
    assert batched.im2col is original
    tracer = Tracer()
    tracer.patch(conv, "im2col", "nn.im2col")
    assert conv.im2col is not original and batched.im2col is conv.im2col
    batched.im2col(np.zeros((1, 1, 4, 4)), 2, 2, 1, 0)
    conv.im2col(np.zeros((1, 1, 4, 4)), 2, 2, 1, 0)
    assert summarize(tracer.drain())["nn.im2col"]["calls"] == 2
    tracer.restore()
    assert conv.im2col is original and batched.im2col is original
    assert tracer.unrestored() == 0


def _bindings() -> dict:
    """Identity of every name the layer wrappers may rebind."""
    from repro.runtime import vectorize

    names = {}
    for module in _package_modules():
        for key, value in vars(module).items():
            names[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, raw in vars(value).items():
                    names[(module.__name__, key, attr)] = raw
    for fn in vectorize.registered_functions():
        names[("group runner", fn.__qualname__)] = vectorize.group_runner_for(fn)
    return names


def test_install_wraps_every_target_and_restore_puts_everything_back():
    import repro.core.experiments  # noqa: F401 - registers the group runners

    for module_name, *_rest in layers.TARGETS:
        __import__(module_name)
    before = _bindings()
    tracer = Tracer()
    layers.install(tracer)
    during = _bindings()
    changed = {key for key in before if during.get(key) is not before[key]}
    for module_name, class_name, attr, _name, _hooks in layers.TARGETS:
        key = (module_name, class_name, attr) if class_name else (module_name, attr)
        assert key in changed, key
    assert ("repro.nn.batched", "im2col") in changed
    assert any(key[0] == "group runner" for key in changed)
    tracer.restore()
    assert tracer.unrestored() == 0
    after = _bindings()
    assert [key for key in before if after.get(key) is not before[key]] == []


def test_traced_repetitions_reproduce_the_untraced_payload(tmp_path):
    from repro.core.config import GridWorldScale
    from repro.core.experiments.mitigation_experiments import inference_mitigation_plan

    def build(seed, cache):
        scale = GridWorldScale.tiny().with_seed(seed)
        return [inference_mitigation_plan("gridworld", scale=scale, cache=cache, repeats=2)]

    workload = workloads.Workload(
        name="self-test", why="", moves={}, build=build, round_trip=True
    )
    bench = run.Bench(workload, seed=3, seconds=0.0, work_dir=tmp_path, tracer=Tracer())
    assert bench.campaign(bench.setup())
    # Every traced repetition was checked against the first, untraced one.
    assert bench.failed == 0 and len(bench.campaign_s[True]) >= run.MIN_CAMPAIGN_REPS
    metrics = bench.layer_metrics()
    assert metrics["faults.corrupt_calls"]["value"] == 8
    assert metrics["runtime.journal_records"]["value"] == 8
    assert metrics["runtime.store_ingest_s"]["value"] > 0
    assert set(metrics) == set(layers.METRICS)


@pytest.mark.parametrize("vectorize", ["off", "auto"])
def test_vectorize_mode_reproduces_the_lockstep_pin(tmp_path, vectorize):
    from repro.core.pretrained import PolicyCache

    workload = workloads.WORKLOADS["drone-train-lockstep"]
    pinned, note = workloads.pinned_digest(workload.name, 0)
    if pinned is None:
        pytest.skip(note)
    plans = []
    for draw, seed in enumerate(workload.scale_seeds(0)):
        cache = PolicyCache(tmp_path / f"cache{draw}")
        plans += [(workload.label(plan, draw), plan) for plan in workload.build(seed, cache)]
    outcome = workloads.execute(workload, plans, tmp_path / "run", vectorize=vectorize)
    assert workloads.payload_digest(outcome.results) == pinned


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf8"))
    assert [item["name"] for item in spec["workloads"]] == list(workloads.WORKLOADS)
    for item in spec["workloads"]:
        assert item["why"] == workloads.WORKLOADS[item["name"]].why
    assert [
        (item["name"], item["unit"], item["better"]) for item in spec["per_layer"]
    ] == [(name, unit, better) for name, (unit, better, *_rest) in layers.METRICS.items()]
    for workload in workloads.WORKLOADS.values():
        for metrics in workload.moves.values():
            assert set(metrics) <= set(layers.METRICS)
