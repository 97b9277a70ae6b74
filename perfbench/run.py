#!/usr/bin/env python3
"""Benchmark of the FRL-FI fault-injection campaign runtime.

Run from the repository root:

    python3 perfbench/run.py --workload campaign-journal --seed 0 --seconds 45 --trace 0

One run is one process.  It sets up every draw of the workload from an empty
policy cache (``setup_s``: baseline pretraining, cache writes and plan
building), then repeats the campaign -- execute the plans and merge the
payloads (``campaign_s``) -- until ``--seconds`` have passed, checking every
payload.  Between campaign repetitions it sets up one draw again, in turn.

Timings keep the fastest sample of each piece of work: of each draw's
set-up, and of each plan (plus the resume pass and the store round trip) in
the campaign, summed over the pieces.  On a shared host other tenants load a
CPU for stretches of a second to minutes, slowing everything on it by up to
1.8x; a median then measures how much of the run fell into such stretches,
while the fastest sample of a short piece is what the program costs on an
unshared CPU.  Each piece also runs on whichever CPU is quieter just before
it starts.  Every sample is printed beside the result
for reference.

``--trace 1`` runs the same phases with the layers' public functions wrapped
in spans (see ``layers.py``), alternating traced and untraced campaign
repetitions, and reports the per-layer metrics instead; the spans are written
to ``.perfbench/traces/``.  The last stdout line is the JSON result; the line
before it records the host, the samples and the payload digest.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, so the run measures the program
# and not thread oversubscription.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from spans import Tracer, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Every draw is set up at least this many times.
SETUP_MIN_ROUNDS = 3
#: Campaign repetitions always run at least this many times (per mode).
MIN_CAMPAIGN_REPS = 3

_PROBE_A = np.random.default_rng(0).random((24, 24))
_PROBE_X = np.random.default_rng(1).random((32, 24))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_seconds() -> float:
    """Seconds a fixed ~2 ms numpy loop takes on the current CPU."""
    started = time.perf_counter()
    for _ in range(1000):
        _PROBE_X @ _PROBE_A
    return time.perf_counter() - started


def host_fingerprint() -> dict:
    from workloads import toolchain

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "schedulable_cpus": len(os.sched_getaffinity(0)),
        **toolchain(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fastest_total(samples: list) -> float:
    """Sum over pieces of each piece's fastest sample (one dict per rep)."""
    return sum(min(sample[piece] for sample in samples) for piece in samples[0])


class Bench:
    """One run of one workload: set-up, campaign repetitions and checks."""

    def __init__(self, workload, seed: int, seconds: float, work_dir: Path, tracer=None) -> None:
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.tracer = tracer
        self.expected, self.pin_note = workloads.pinned_digest(workload.name, seed)
        self.attempted = 0
        self.failed = 0
        #: Set-up seconds: one list of samples per draw.
        self.setup_s = []
        #: Piece seconds of each campaign repetition, untraced and traced.
        self.campaign_s = {False: [], True: []}
        self.layer_samples = {layers.SETUP: [], layers.CAMPAIGN: []}
        #: Spans of the last traced repetition of each phase.
        self.last_spans = {}
        #: CPUs that the run picks from before each piece of work.
        self.cpus = sorted(os.sched_getaffinity(0))

    def pick_cpu(self) -> None:
        """Pin the run to the CPU that runs a short probe fastest.

        Other tenants slow one CPU at a time, for stretches of a second or
        more, and the slow stretches of two CPUs barely correlate; a piece
        started on the quieter CPU most likely runs undisturbed.
        """
        if len(self.cpus) < 2:
            return
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((min(probe_seconds(), probe_seconds()), cpu))
        os.sched_setaffinity(0, {min(timings)[1]})

    def release_cpus(self) -> None:
        """Give the process back every CPU it started with."""
        os.sched_setaffinity(0, self.cpus)

    # ------------------------------------------------------------------ set-up
    def setup(self):
        """Set up every draw once from an empty policy cache; returns the labelled plans."""
        draws = len(self.workload.scale_seeds(self.seed))
        self.setup_s = [[] for _draw in range(draws)]
        return [
            (self.workload.label(plan, draw), plan)
            for draw in range(draws)
            for plan in self.setup_draw(draw)
        ]

    def setup_draw(self, draw: int):
        """Set up ``draw`` from an empty policy cache, timed; returns its plans."""
        from repro.core.pretrained import PolicyCache

        seed = self.workload.scale_seeds(self.seed)[draw]
        cache_dir = self.work_dir / "caches" / f"{draw}-{len(self.setup_s[draw])}"
        self.pick_cpu()
        with self._repetition(layers.SETUP, self.tracer is not None) as span:
            started = time.perf_counter()
            with span(layers.PLAN_BUILD):
                built = self.workload.build(seed, PolicyCache(cache_dir))
            self.setup_s[draw].append(time.perf_counter() - started)
        return built

    def setup_seconds(self) -> float:
        """Cold set-up time per draw: the mean over draws of each one's fastest."""
        return statistics.mean(min(times) for times in self.setup_s)

    # ---------------------------------------------------------------- campaign
    def campaign(self, plans) -> bool:
        """Repeat the campaign until the time is up; False on a failed cell.

        After each repetition one draw is set up again, in turn, so the set-up
        samples spread over the run as the campaign's do; at the end every
        draw has at least :data:`SETUP_MIN_ROUNDS` of them.
        """
        from repro.runtime.residency import clear_residency
        from repro.runtime.runner import CampaignError

        deadline = time.perf_counter() + self.seconds
        rep = 0
        while rep < MIN_CAMPAIGN_REPS * (2 if self.tracer else 1) or time.perf_counter() < deadline:
            traced = self.tracer is not None and rep % 2 == 1
            rep_dir = self.work_dir / f"rep{rep}"
            pick_cpu = self.pick_cpu
            if traced:
                # A span of its own keeps the probes out of trace.unattributed_s.
                pick_cpu = self.tracer.traced(pick_cpu, "perfbench.pick_cpu")
            # Every repetition decodes its policies, as a one-shot run does.
            clear_residency()
            try:
                with self._repetition(layers.CAMPAIGN, traced, plans):
                    outcome = self.workloads.execute(
                        self.workload, plans, rep_dir, before_piece=pick_cpu
                    )
            except CampaignError as exc:
                print(f"campaign failed: {exc}", file=sys.stderr)
                self.attempted += sum(plan.cell_count for _label, plan in plans)
                self.failed += 1
                return False
            self.campaign_s[traced].append(outcome.seconds)
            attempted, failed, digest = self.workloads.check(
                self.workload, plans, outcome, self.expected
            )
            if self.expected is None:
                self.expected = digest
            elif digest != self.expected:
                print(f"payload digest {digest} != expected {self.expected}", file=sys.stderr)
            self.attempted += attempted
            self.failed += failed
            shutil.rmtree(rep_dir, ignore_errors=True)
            self.setup_draw(rep % len(self.setup_s))
            rep += 1
        for draw, times in enumerate(self.setup_s):
            while len(times) < SETUP_MIN_ROUNDS:
                self.setup_draw(draw)
        return True

    # ----------------------------------------------------------------- tracing
    @contextlib.contextmanager
    def _repetition(self, phase: str, traced: bool, plans=()):
        """One repetition; when ``traced``, with every layer wrapped in spans.

        Yields the function that opens a named span (a no-op untraced).
        Afterwards every wrapper must be restored, and the repetition's span
        summary becomes one sample of the ``phase`` layer metrics.
        """
        if not traced:
            yield lambda _name: contextlib.nullcontext()
            return
        tracer = self.tracer
        layers.install(tracer)
        for _label, plan in plans:
            tracer.patch(plan, "merge", "runtime.merge")
        try:
            with tracer.span(layers.ROOT):
                yield tracer.span
        finally:
            tracer.restore()
        if tracer.unrestored():
            raise RuntimeError(f"{tracer.unrestored()} traced wrappers were not restored")
        spans = tracer.drain()
        self.layer_samples[phase].append(layers.layer_metrics(summarize(spans), phase))
        self.last_spans[phase] = spans

    def layer_metrics(self) -> dict:
        """Every per-layer metric: medians over the traced repetitions."""
        values = {}
        for samples in self.layer_samples.values():
            for metric in samples[0] if samples else ():
                values[metric] = statistics.median(sample[metric] for sample in samples)
        values["trace.overhead_frac"] = (
            fastest_total(self.campaign_s[True]) / fastest_total(self.campaign_s[False]) - 1
        )
        return {
            metric: {"value": values.get(metric, 0.0), "unit": spec[0]}
            for metric, spec in layers.METRICS.items()
        }

    def end_to_end_metrics(self) -> dict:
        return {
            "campaign_s": {"value": fastest_total(self.campaign_s[False]), "unit": "s"},
            "setup_s": {"value": self.setup_seconds(), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }


def run(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    bench = Bench(workload, args.seed, args.seconds, work_dir, Tracer() if args.trace else None)
    try:
        plans = bench.setup()
        completed = bench.campaign(plans)
    finally:
        bench.release_cpus()
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics = {}
    if completed:
        metrics = bench.layer_metrics() if args.trace else bench.end_to_end_metrics()
    if args.trace:
        _write_trace(bench, args)
    correct = completed and bench.failed == 0
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "host": host_fingerprint(),
        "digest": bench.expected,
        "digest_check": bench.pin_note,
        "setup_s": bench.setup_s,
        "campaign_s": {
            "untraced": [sum(rep.values()) for rep in bench.campaign_s[False]],
            "traced": [sum(rep.values()) for rep in bench.campaign_s[True]],
        },
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _write_trace(bench: Bench, args) -> None:
    """Write the spans of the last traced set-up and campaign repetition.

    One file per workload, replaced by each traced run: a header line, then
    one line per phase holding that repetition's spans.
    """
    out = WORK / "traces" / f"{bench.workload.name}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "workload": bench.workload.name,
        "seed": args.seed,
        "host": host_fingerprint(),
        "fields": ["name", "start", "end", "parent", "amount", "nested"],
    }
    with out.open("w", encoding="utf8") as handle:
        handle.write(json.dumps(header) + "\n")
        for phase, spans in bench.last_spans.items():
            handle.write(json.dumps({"phase": phase, "spans": spans}) + "\n")


if __name__ == "__main__":
    sys.exit(run(parse_args()))
