"""Shard orchestration: launch, watch, retry, and merge multi-machine shards.

PR 3 built the shard *wire protocol* — ``--shard k/n`` journals plus
``--merge-only`` folding — but left a human as the scheduler: someone had to
start every shard, notice when one died, rerun it, and merge.  This module is
that missing layer.  :class:`ShardOrchestrator` drives a whole sharded
campaign from one process:

* each shard runs as a ``repro-campaign <id> --shard k/n`` attempt launched
  through an :class:`~repro.runtime.backends.ExecutionBackend` — a local
  subprocess by default, a remote host over SSH, or a Slurm job — with the
  :class:`~repro.runtime.scheduler.BackendScheduler` assigning attempts to
  backends by declared slot capacity and queueing shards when every backend
  is saturated;
* the orchestrator **tails the shard journal files** (they are the single
  source of truth for progress — the same property that makes them the
  multi-machine wire format, and the only thing backends must share: a
  filesystem) and reports live per-shard cell counts;
* a shard whose attempt exits non-zero, stalls (no journal progress for
  ``stall_timeout`` seconds), or is killed is **retried with ``--resume``**
  up to ``max_retries`` times — resuming from its journal, never restarting
  the completed cells, and **failing over to a different backend** than the
  one that just failed whenever more than one backend is configured;
* when every shard has succeeded, the orchestrator runs
  :meth:`~repro.runtime.runner.CampaignRunner.merge_shards`, producing a
  payload **byte-identical** to a single-machine run whatever the backend
  mix;
* a structured :class:`OrchestratorReport` (per-shard attempts, durations,
  retry reasons, and which backend ran each attempt) is written into the
  journal directory for post-mortems.

For clusters the orchestrator does not manage itself,
:func:`~repro.runtime.backends.render_slurm_script` and
:func:`~repro.runtime.backends.render_k8s_manifest` (re-exported here) emit
ready-to-submit Slurm array-job / Kubernetes indexed-Job templates whose
array tasks run exactly the same ``--shard k/n --resume`` commands — built by
the same :func:`~repro.runtime.backends.shard_argv` the orchestrator launches
— so the scheduler's own requeue machinery resumes from the journals too.

The orchestrator deliberately reuses :class:`~repro.runtime.sharding.ShardSpec`
and ``merge_shards`` — it introduces no second partitioning scheme, only a
driver for the existing one.
"""

from __future__ import annotations

import asyncio
import os
import shlex
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.runtime.backends import (
    ExecutionBackend,
    LocalProcessBackend,
    ShardLaunch,  # noqa: F401  (re-exported for backend implementers)
    render_k8s_manifest,  # noqa: F401  (re-exported; CLI and tests import from here)
    render_slurm_script,  # noqa: F401  (re-exported; CLI and tests import from here)
    shard_argv,
)
from repro.runtime.journal import JournalProgress
from repro.runtime.request import check_settings
from repro.runtime.runner import CampaignError, CampaignRunner
from repro.runtime.scheduler import BackendScheduler
from repro.runtime.sharding import ShardSpec
from repro.utils.serialization import save_json


class OrchestratorError(CampaignError):
    """A sharded campaign could not be completed (a shard exhausted its retries).

    Carries the :class:`OrchestratorReport` (already written to the journal
    directory) as ``report``, so callers can still inspect which shard failed,
    why, and what every attempt looked like.
    """

    def __init__(self, message: str, report: Optional["OrchestratorReport"] = None) -> None:
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class ShardAttempt:
    """One backend attempt at running a shard.

    ``reason`` is ``None`` for a successful attempt; otherwise it names why
    the attempt failed ("exit status 1: ...", "stalled: ...", an injected
    kill).  ``resumed`` records whether ``--resume`` was passed, i.e. whether
    the attempt continued from the shard journal instead of restarting.
    ``backend`` names the execution backend that ran the attempt — after a
    backend failover, consecutive attempts carry different names.
    """

    number: int
    duration_seconds: float
    returncode: Optional[int]
    cells_completed: int
    resumed: bool
    reason: Optional[str]
    backend: Optional[str] = None

    def as_dict(self) -> dict:
        """JSON-serializable form for the orchestrator report."""
        return {
            "number": self.number,
            "duration_seconds": round(self.duration_seconds, 3),
            "returncode": self.returncode,
            "cells_completed": self.cells_completed,
            "resumed": self.resumed,
            "reason": self.reason,
            "backend": self.backend,
        }


@dataclass
class ShardOutcome:
    """Everything that happened to one shard: its attempts, in order."""

    shard: ShardSpec
    assigned_cells: int
    attempts: List[ShardAttempt] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        """Whether the shard's final attempt completed cleanly."""
        return bool(self.attempts) and self.attempts[-1].reason is None

    def as_dict(self) -> dict:
        """JSON-serializable form for the orchestrator report."""
        return {
            "shard": self.shard.describe(),
            "assigned_cells": self.assigned_cells,
            "succeeded": self.succeeded,
            "attempts": [attempt.as_dict() for attempt in self.attempts],
        }


@dataclass
class OrchestratorReport:
    """Structured post-mortem of one orchestrated campaign.

    Written as ``<label>.orchestrator.json`` into the journal directory
    whether the campaign merged or failed, so "why did shard 3 take four
    attempts last night" — and "which backend did each attempt land on" —
    have answers that outlive the terminal scrollback.  The merged result
    object (when ``merged``) is on :attr:`result`; it is not serialized into
    the report — the campaign's own ``--output`` files hold the payload.
    """

    experiment_id: str
    shard_count: int
    cell_count: int
    max_retries: int
    outcomes: List[ShardOutcome]
    backends: List[str] = field(default_factory=list)
    merged: bool = False
    duration_seconds: float = 0.0
    result: Optional[object] = None
    path: Optional[Path] = None

    @property
    def failed_shards(self) -> List[ShardSpec]:
        """The shards whose retries were exhausted, in shard order."""
        return [outcome.shard for outcome in self.outcomes if not outcome.succeeded]

    def as_dict(self) -> dict:
        """JSON-serializable form (excludes the in-memory merged result)."""
        return {
            "experiment_id": self.experiment_id,
            "shard_count": self.shard_count,
            "cell_count": self.cell_count,
            "max_retries": self.max_retries,
            "backends": list(self.backends),
            "merged": self.merged,
            "duration_seconds": round(self.duration_seconds, 3),
            "shards": [outcome.as_dict() for outcome in self.outcomes],
        }

    def render(self) -> str:
        """Plain-text summary: one line per shard, attempts and outcome."""
        lines = [
            f"{self.experiment_id}: {self.shard_count} shard(s) over "
            f"{self.cell_count} cells in {self.duration_seconds:.1f}s — "
            + ("merged" if self.merged else "NOT merged")
        ]
        if self.backends:
            lines.append(f"  backends: {', '.join(self.backends)}")
        for outcome in self.outcomes:
            status = "ok" if outcome.succeeded else "FAILED"
            detail = ""
            reasons = [a.reason for a in outcome.attempts if a.reason is not None]
            if reasons:
                detail = f" (failed attempts: {'; '.join(reasons)})"
            via = sorted({a.backend for a in outcome.attempts if a.backend})
            via_text = f" via {', '.join(via)}" if via else ""
            lines.append(
                f"  shard {outcome.shard.describe()}: {status} after "
                f"{len(outcome.attempts)} attempt(s), "
                f"{outcome.assigned_cells} cell(s){via_text}{detail}"
            )
        return "\n".join(lines)


#: Signature of the testing hook that overrides shard attempt commands:
#: ``(spec, attempt_number, resume) -> argv``.
CommandFactory = Callable[[ShardSpec, int, bool], Sequence[str]]


class ShardOrchestrator:
    """Asyncio driver for an ``n``-way sharded campaign over pluggable backends.

    Parameters
    ----------
    experiment_id:
        The registered artifact to run (must decompose into >1 cell).
    shard_count:
        How many ``--shard k/n`` attempts to drive (concurrency is bounded
        only by the backends' declared slots).
    runner:
        A :class:`~repro.runtime.runner.CampaignRunner` with ``journal_dir``
        set to the shared journal store.  The orchestrator uses it to build
        the plan **in the parent process** — which trains or loads any missing
        pretrained baselines *before* the shards launch, so concurrent
        attempts never race to train the same baseline — and to
        ``merge_shards`` at the end.
    backends:
        The :class:`~repro.runtime.backends.ExecutionBackend` roster shard
        attempts are scheduled onto.  Defaults to one unbounded
        :class:`~repro.runtime.backends.LocalProcessBackend` — exactly the
        pre-backend behaviour of running every shard as a concurrent local
        subprocess.
    plan:
        Optional pre-built :class:`~repro.runtime.cells.CampaignPlan`
        (testing hook; defaults to ``runner.plan(experiment_id)``).
    shard_args:
        Extra CLI arguments forwarded verbatim to every shard attempt:
        the campaign's :meth:`~repro.runtime.request.CampaignRequest.to_argv`.
    max_retries:
        How many times a failed or stalled shard is retried (with
        ``--resume``) beyond its first attempt.
    stall_timeout:
        Kill and retry a shard whose journal shows no new cell for this many
        seconds (``None`` disables stall detection).
    poll_interval:
        How often (seconds) shard journals are polled for progress.
    inject_kill_shard:
        Chaos-testing hook: kill this shard's *first* attempt as soon as its
        journal holds at least one cell.  CI uses it to prove the
        kill → retry → ``--resume`` → byte-identical-merge path (and, with
        multiple backends, the backend-failover path) on a real artifact.
    command_factory:
        Testing hook replacing the default ``repro-campaign <id> --shard k/n``
        attempt command.
    on_event:
        Callback receiving human-readable progress lines (``None`` = silent).
    scheduler:
        An injected scheduler replacing the orchestrator's own
        :class:`~repro.runtime.scheduler.BackendScheduler`.  The campaign
        service passes a per-campaign view of its *shared* dispatcher here,
        so many concurrent orchestrations draw from one roster under one
        priority/quota policy; the roster is then read off
        ``scheduler.backends`` and ``backends`` must not also be given.
    prepare_backends:
        Whether :meth:`run_async` runs ``backend.prepare`` before launching
        (default).  The campaign service prepares its shared roster once at
        startup and passes ``False``, so every submitted campaign does not
        re-run SSH preflights or re-create scratch directories.
    """

    def __init__(
        self,
        experiment_id: str,
        shard_count: int,
        runner: CampaignRunner,
        *,
        backends: Optional[Sequence[ExecutionBackend]] = None,
        plan=None,
        shard_args: Sequence[str] = (),
        max_retries: int = 2,
        stall_timeout: Optional[float] = None,
        poll_interval: float = 0.5,
        inject_kill_shard: Optional[int] = None,
        command_factory: Optional[CommandFactory] = None,
        on_event: Optional[Callable[[str], None]] = None,
        python_executable: Optional[str] = None,
        scheduler: Optional[BackendScheduler] = None,
        prepare_backends: bool = True,
    ) -> None:
        check_settings(
            shards=shard_count,
            max_retries=max_retries,
            poll_interval=poll_interval,
            stall_timeout=stall_timeout,
        )
        if runner.journal_dir is None:
            raise CampaignError(
                "orchestration requires a journal directory: construct the "
                "CampaignRunner with journal_dir (CLI: --journal-dir or --output)"
            )
        if scheduler is not None and backends is not None:
            raise ValueError(
                "give either backends or an injected scheduler, not both: an "
                "injected scheduler brings its own roster (scheduler.backends)"
            )
        self.experiment_id = experiment_id
        self.shard_count = int(shard_count)
        self.runner = runner
        self.journal_dir = runner.journal_dir
        if scheduler is not None:
            self.backends: List[ExecutionBackend] = list(scheduler.backends)
        else:
            self.backends = list(backends or [LocalProcessBackend()])
        self._plan = plan
        self.shard_args = list(shard_args)
        self.max_retries = int(max_retries)
        self.stall_timeout = stall_timeout
        self.poll_interval = float(poll_interval)
        self.inject_kill_shard = inject_kill_shard
        self.command_factory = command_factory
        self.on_event = on_event
        self.python_executable = python_executable or sys.executable
        self.scheduler = scheduler if scheduler is not None else BackendScheduler(self.backends)
        self.prepare_backends = bool(prepare_backends)

    # ------------------------------------------------------------------- plan
    @property
    def plan(self):
        """The campaign plan, built once in the parent process.

        Building the plan trains (or cache-loads) every pretrained baseline
        *before* any shard attempt starts — the attempts then find a warm
        cache instead of racing each other to train the same policy.
        """
        if self._plan is None:
            self._plan = self.runner.plan(self.experiment_id)
        return self._plan

    def shard_specs(self) -> List[ShardSpec]:
        """The :class:`ShardSpec` for every shard of this orchestration."""
        return [ShardSpec(index, self.shard_count) for index in range(1, self.shard_count + 1)]

    # --------------------------------------------------------------- commands
    def shard_command(
        self,
        spec: ShardSpec,
        attempt_number: int,
        resume: bool,
        backend: Optional[ExecutionBackend] = None,
    ) -> List[str]:
        """The argv for one shard attempt.

        The default command is the public CLI itself — ``repro-campaign
        <id> --shard k/n --journal-dir ...``, built by the shared
        :func:`~repro.runtime.backends.shard_argv` — so an orchestrated shard
        is bit-for-bit the same run a human (or a rendered Slurm/Kubernetes
        template) would launch.  The program prefix defaults to this
        process's own interpreter; a backend that executes on a different
        machine overrides it via
        :meth:`~repro.runtime.backends.ExecutionBackend.shard_program` (the
        local ``sys.executable`` path would not exist over SSH).
        """
        if self.command_factory is not None:
            return list(self.command_factory(spec, attempt_number, resume))
        program: Sequence[str] = (self.python_executable, "-m", "repro.runtime.cli")
        shard_args = list(self.shard_args)
        if backend is not None:
            override = backend.shard_program()
            if override:
                program = override
            if backend.workers is not None:
                # Appended after the forwarded args so it wins over the
                # campaign-wide --workers (argparse keeps the last occurrence).
                shard_args += ["--workers", str(backend.workers)]
        return shard_argv(
            self.experiment_id,
            spec.describe(),
            self.journal_dir,
            shard_args=shard_args,
            resume=resume,
            program=program,
        )

    def render_dry_run(self) -> str:
        """The resolved shard→backend assignment and exact per-shard commands.

        Launches nothing and builds no plan (so no baseline training) —
        the cheapest way to eyeball ``--backend`` spec parsing and the
        scheduler's first-attempt placement before committing a cluster.
        """
        assignments = self.scheduler.plan_assignments(self.shard_count)
        total = self.scheduler.total_slots
        lines = [
            f"{self.experiment_id}: {self.shard_count} shard(s) over backends "
            f"{self.scheduler.describe()}"
        ]
        for spec, backend in zip(self.shard_specs(), assignments):
            command = self.shard_command(spec, 1, False, backend)
            lines.append(
                f"  shard {spec.describe()} -> {backend.name}: "
                + " ".join(shlex.quote(part) for part in command)
            )
        if total is not None and self.shard_count > total:
            lines.append(
                f"  note: {self.shard_count} shard(s) over {total} total slot(s) — "
                f"{self.shard_count - total} shard(s) queue until a slot frees; "
                "assignments beyond the first wave assume shards finish in "
                "launch order"
            )
        lines.append("dry run: nothing launched")
        return "\n".join(lines)

    def _subprocess_env(self) -> dict:
        """Environment for shard attempts (repro importable without install)."""
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root if not existing else src_root + os.pathsep + existing
        return env

    def _emit(self, message: str) -> None:
        """Send one progress line to the ``on_event`` callback, if any."""
        if self.on_event is not None:
            self.on_event(message)

    # -------------------------------------------------------------- execution
    def run(self) -> OrchestratorReport:
        """Run the whole orchestration synchronously (``asyncio.run`` wrapper)."""
        return asyncio.run(self.run_async())

    async def run_async(self) -> OrchestratorReport:
        """Launch every shard, retry failures, merge, and write the report.

        Returns the :class:`OrchestratorReport` with ``merged=True`` and the
        merged result on ``report.result``.  Raises :class:`OrchestratorError`
        (carrying the report) when any shard exhausts its retries — the report
        is written to the journal directory in both cases.
        """
        # Backend preparation (scratch dirs, the SSH connection preflight)
        # happens here rather than in __init__ so a --dry-run stays offline
        # and a dead host is reported as an orchestration failure.  A shared
        # roster (injected scheduler) is prepared once by its owner instead.
        if self.prepare_backends:
            for backend in self.backends:
                backend.prepare(self.journal_dir)
        plan = self.plan
        if self.shard_count > plan.cell_count:
            self._emit(
                f"note: {self.shard_count} shards over {plan.cell_count} cells — "
                f"{self.shard_count - plan.cell_count} shard(s) will own no cells"
            )
        self._emit(f"backends: {self.scheduler.describe()}")
        started = time.monotonic()
        outcomes = await asyncio.gather(
            *(self._drive_shard(spec) for spec in self.shard_specs())
        )
        report = OrchestratorReport(
            experiment_id=self.experiment_id,
            shard_count=self.shard_count,
            cell_count=plan.cell_count,
            max_retries=self.max_retries,
            outcomes=list(outcomes),
            backends=[backend.describe() for backend in self.backends],
        )
        failed = report.failed_shards
        merge_error: Optional[Exception] = None
        if not failed:
            try:
                report.result = self.runner.merge_shards(plan, name=self.experiment_id)
                report.merged = True
            except Exception as error:
                # The report (the post-mortem) must land even when the merge
                # finds e.g. stale foreign shard journals in the shared store.
                merge_error = error
        report.duration_seconds = time.monotonic() - started
        report.path = self.journal_dir / f"{self.experiment_id}.orchestrator.json"
        save_json(report.path, report.as_dict())
        self._emit(f"report written to {report.path}")
        if merge_error is not None:
            raise OrchestratorError(
                f"every shard of {self.experiment_id} succeeded but merging "
                f"failed: {merge_error}",
                report=report,
            ) from merge_error
        if failed:
            names = ", ".join(spec.describe() for spec in failed)
            reasons = "; ".join(
                outcome.attempts[-1].reason or "unknown"
                for outcome in report.outcomes
                if not outcome.succeeded
            )
            raise OrchestratorError(
                f"shard(s) {names} of {self.experiment_id} failed after "
                f"{self.max_retries + 1} attempt(s): {reasons}",
                report=report,
            )
        return report

    async def _drive_shard(self, spec: ShardSpec) -> ShardOutcome:
        """Run one shard to success or retry exhaustion, failing over backends."""
        journal_path = spec.journal_path(self.journal_dir, self.experiment_id)
        # One incremental prober per *shard*, shared by all of its attempts:
        # a retry's polls then parse only the bytes its predecessor had not
        # seen, instead of re-reading the whole journal from offset zero on
        # every attempt (O(new bytes) total, however many retries happen).
        progress = JournalProgress(journal_path)
        outcome = ShardOutcome(
            shard=spec,
            assigned_cells=len(spec.cell_indices(self.plan.cell_count)),
        )
        total = self.max_retries + 1
        failed_backend: Optional[ExecutionBackend] = None
        for number in range(1, total + 1):
            # First attempts resume too when a journal is already on disk —
            # e.g. a previous orchestrate run that died; completed cells are
            # never re-executed.
            resume = number > 1 or journal_path.exists()
            if not self.scheduler.has_free_slot(avoid=failed_backend):
                self._emit(
                    f"shard {spec.describe()}: queued — waiting for a free "
                    "backend slot"
                )
            backend = await self.scheduler.acquire(avoid=failed_backend)
            try:
                attempt = await self._attempt(spec, number, progress, resume, backend)
            finally:
                await self.scheduler.release(backend)
            outcome.attempts.append(attempt)
            if attempt.reason is None:
                self._emit(
                    f"shard {spec.describe()}: done on {backend.name} — "
                    f"{attempt.cells_completed}/{outcome.assigned_cells} cells "
                    f"journaled in {attempt.duration_seconds:.1f}s "
                    f"(attempt {number}/{total})"
                )
                break
            failed_backend = backend
            if number < total:
                failover = " on a different backend" if len(self.backends) > 1 else ""
                self._emit(
                    f"shard {spec.describe()}: attempt {number} on {backend.name} "
                    f"failed ({attempt.reason}); retrying with --resume{failover} "
                    f"(attempt {number + 1}/{total})"
                )
            else:
                self._emit(
                    f"shard {spec.describe()}: FAILED after {total} attempt(s) "
                    f"— {attempt.reason}"
                )
        return outcome

    async def _attempt(
        self,
        spec: ShardSpec,
        number: int,
        progress: JournalProgress,
        resume: bool,
        backend: ExecutionBackend,
    ) -> ShardAttempt:
        """One attempt: launch on ``backend``, tail the journal, decide the outcome.

        ``progress`` is the shard's long-lived :class:`JournalProgress`
        prober — owned by :meth:`_drive_shard` and shared across attempts,
        so repeated polling costs O(new bytes), not O(file size) per poll.
        """
        command = self.shard_command(spec, number, resume, backend)
        self._emit(
            f"shard {spec.describe()}: attempt {number} starting on {backend.name} — "
            + " ".join(shlex.quote(part) for part in command)
        )
        started = time.monotonic()
        try:
            launch = await backend.launch(command, env=self._subprocess_env())
        except Exception as error:
            return ShardAttempt(
                number=number,
                duration_seconds=time.monotonic() - started,
                returncode=None,
                cells_completed=progress.poll(),
                resumed=resume,
                reason=f"backend {backend.name} failed to launch: {error}",
                backend=backend.name,
            )
        wait_task = asyncio.ensure_future(launch.wait())
        kill_reason: Optional[str] = None
        tracking_error: Optional[Exception] = None
        returncode: Optional[int] = None
        stderr_text = ""
        cells = progress.poll()
        last_change = time.monotonic()
        try:
            try:
                while True:
                    done, _ = await asyncio.wait({wait_task}, timeout=self.poll_interval)
                    now = time.monotonic()
                    current = progress.poll()
                    if current != cells:
                        cells = current
                        last_change = now
                        self._emit(
                            f"shard {spec.describe()}: {cells} cell(s) journaled "
                            f"(attempt {number} on {backend.name})"
                        )
                    if wait_task in done:
                        break
                    if kill_reason is None:
                        if (
                            self.inject_kill_shard == spec.index
                            and number == 1
                            and cells >= 1
                        ):
                            kill_reason = (
                                "injected kill (--inject-kill-shard chaos hook, "
                                "first attempt)"
                            )
                        elif (
                            self.stall_timeout is not None
                            and now - last_change > self.stall_timeout
                        ):
                            kill_reason = (
                                f"stalled: no journal progress for more than "
                                f"{self.stall_timeout:.0f}s"
                            )
                        if kill_reason is not None:
                            self._emit(
                                f"shard {spec.describe()}: killing attempt {number} — "
                                f"{kill_reason}"
                            )
                            launch.kill()
                returncode = wait_task.result()
                stderr_text = await launch.stderr()
            except asyncio.CancelledError:
                raise
            except Exception as error:
                # A backend that fails while *tracking* the attempt (squeue
                # binary missing mid-poll, transient OSError, ...) is a
                # failed attempt that should retry/fail over — never a crash
                # of the whole orchestration with no report.
                tracking_error = error
        finally:
            # Never orphan a shard: on cancellation (Ctrl+C) or any monitor
            # error, the attempt dies with the orchestrator.  close() awaits
            # (rather than cancels) the backend's reaping, so killed children
            # and their pipes are collected cleanly, and it runs even when a
            # second cancellation interrupts the wait.
            if not launch.finished:
                launch.kill()
            try:
                await asyncio.gather(wait_task, return_exceptions=True)
            finally:
                await launch.close()
        duration = time.monotonic() - started
        cells = progress.poll()
        if tracking_error is not None:
            reason: Optional[str] = (
                f"backend {backend.name} failed while tracking the attempt: "
                f"{tracking_error}"
            )
        elif returncode == 0 and kill_reason is None:
            if self.inject_kill_shard == spec.index and number == 1:
                # The shard finished between polls, before the kill could
                # land.  Treat the attempt as failed anyway so the chaos hook
                # stays deterministic: the retry resumes a complete journal,
                # executes nothing, and exits 0.
                kill_reason = (
                    "injected kill (--inject-kill-shard chaos hook, first "
                    "attempt; shard finished before the kill landed, attempt "
                    "treated as failed)"
                )
                reason = kill_reason
            else:
                reason = None
        elif kill_reason is not None:
            reason = kill_reason
        else:
            tail = [line for line in stderr_text.strip().splitlines() if line.strip()]
            reason = f"exit status {returncode}"
            if tail:
                reason += f": {tail[-1].strip()}"
        return ShardAttempt(
            number=number,
            duration_seconds=duration,
            returncode=returncode,
            cells_completed=cells,
            resumed=resume,
            reason=reason,
            backend=backend.name,
        )
