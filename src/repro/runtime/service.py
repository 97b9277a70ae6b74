"""The campaign service: many concurrent campaigns over one shared roster.

Before this layer, one ``repro-campaign orchestrate`` invocation owned its
:class:`~repro.runtime.scheduler.BackendScheduler` outright — slot accounting
died with the process, so two campaigns could not share a roster and a second
user meant a second cluster.  :class:`CampaignService` lifts orchestration
into a resident object:

* **submissions** (:class:`CampaignSpec`: label, artifact, shard count, plan
  arguments, tenant, priority) each run as one
  :class:`~repro.runtime.orchestrator.ShardOrchestrator` — the orchestrator
  is reused as a *library client*, injected with a per-campaign view of the
  service's shared :class:`~repro.runtime.service_queue.ServiceDispatcher`,
  so every shard launch of every campaign flows through one priority queue
  with per-tenant quotas before it may take a backend slot;
* **isolation** — each campaign journals into its own subdirectory
  ``<journal_dir>/<label>/``, so shard journal names never collide across
  campaigns and the byte-identity contract holds per campaign: the merged
  payload saved there is byte-identical to a one-shot run of the same label;
* **progress** — per-shard cell counts are tailed with
  :class:`~repro.runtime.journal.JournalProgress` probers (O(new bytes) per
  poll) and exposed both as point-in-time status and as an async event
  stream (:meth:`CampaignService.stream`) the API layer serves as NDJSON/SSE;
* **cancellation** — :meth:`CampaignService.cancel` cancels the campaign's
  task; the orchestrator's cleanup group-kills every in-flight shard attempt,
  and the service journals a ``cancelled`` record with per-shard progress;
* **crash safety** — every submission and terminal state is fsynced to
  ``service.campaigns.jsonl``.  A restarted service (``resume=True``)
  re-adopts every campaign that was submitted but never reached a terminal
  state; the re-run orchestrator resumes from the shard journals, so no
  completed cell is recomputed.  A label already in flight is refused with
  its plan fingerprint, so the same campaign can never run twice at once.

The service holds no wall-clock state anywhere a journaled record could pick
it up (repro-lint REP003 covers this module): records are functions of the
submission alone, durations come from ``time.monotonic``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.runtime.backends import ExecutionBackend, LocalProcessBackend
from repro.runtime.journal import JournalProgress, journal_records, plan_fingerprint
from repro.runtime.orchestrator import CommandFactory, ShardOrchestrator
from repro.runtime.request import CampaignRequest, check_settings, save_result
from repro.runtime.runner import CampaignError
from repro.runtime.scheduler import BackendScheduler
from repro.runtime.service_queue import ServiceDispatcher
from repro.runtime.sharding import ShardSpec

#: Campaign states that will never change again.
TERMINAL_STATES = frozenset({"merged", "failed", "cancelled"})

_LABEL_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._@-]*")

#: The service's own journal file inside the journal store.
SERVICE_JOURNAL_NAME = "service.campaigns.jsonl"


class ServiceError(CampaignError):
    """A submission or service-control request could not be honoured."""


@dataclass(init=False)
class CampaignSpec:
    """One campaign submission: a request, plus as whom, how urgently, in how many shards.

    ``label`` names the campaign's journal subdirectory (and must therefore
    be filesystem-safe); it defaults to the artifact id.  The request's
    ``workers`` is the pool size inside each shard (``workers_per_shard`` in
    the constructor and the JSON form).  ``scale=None`` inherits the
    service's default scale, so a daemon started with ``--scale tiny`` runs
    tiny campaigns unless a submission overrides it.
    """

    request: CampaignRequest
    label: str
    tenant: str
    priority: int
    shards: int

    def __init__(
        self,
        experiment_id: str,
        label: Optional[str] = None,
        tenant: str = "default",
        priority: int = 0,
        shards: int = 2,
        scale: Optional[str] = None,
        seed: Optional[int] = None,
        workers_per_shard: int = 1,
        batch_cells: int = 1,
        vectorize: str = "auto",
    ) -> None:
        self.request = CampaignRequest(
            experiment_id, scale, seed, workers_per_shard, batch_cells, vectorize
        )
        self.label = experiment_id if label is None else label
        self.tenant = tenant
        self.priority = priority
        self.shards = shards

    @property
    def experiment_id(self) -> str:
        """The artifact the campaign runs."""
        return self.request.experiment_id

    def validate(self) -> None:
        """Raise :class:`ServiceError` on any out-of-range field."""
        if not _LABEL_PATTERN.fullmatch(self.label or ""):
            raise ServiceError(
                f"label {self.label!r} is not filesystem-safe (allowed: letters, "
                "digits, '.', '_', '@', '-'; must not start with punctuation)"
            )
        if not self.tenant:
            raise ServiceError("tenant must be a non-empty string")
        try:
            check_settings(shards=self.shards, workers_per_shard=self.request.workers)
            self.request.validate()
        except ValueError as error:
            raise ServiceError(str(error)) from error

    def as_dict(self) -> dict:
        """JSON form recorded in the service journal (and echoed by the API)."""
        request = self.request
        return {
            "experiment_id": request.experiment_id,
            "label": self.label,
            "tenant": self.tenant,
            "priority": self.priority,
            "shards": self.shards,
            "scale": request.scale,
            "seed": request.seed,
            "workers_per_shard": request.workers,
            "batch_cells": request.batch_cells,
            "vectorize": request.vectorize,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        """Rebuild a spec from its journal/API JSON form, ignoring extras."""
        if not isinstance(payload, dict) or not payload.get("experiment_id"):
            raise ServiceError("submission payload must be an object with experiment_id")
        known = {
            "experiment_id", "label", "tenant", "priority", "shards", "scale",
            "seed", "workers_per_shard", "batch_cells", "vectorize",
        }
        fields = {key: payload[key] for key in sorted(known) if key in payload}
        try:
            spec = cls(**fields)
        except TypeError as error:
            raise ServiceError(f"invalid submission payload: {error}")
        spec.validate()
        return spec


@dataclass
class Campaign:
    """One submitted campaign and everything the service knows about it."""

    id: str
    spec: CampaignSpec
    dir: Path
    state: str = "queued"
    fingerprint: Optional[str] = None
    error: Optional[str] = None
    duration_seconds: float = 0.0
    adopted: bool = False
    task: Optional["asyncio.Task"] = None
    report: Optional[object] = None
    probers: Dict[str, JournalProgress] = field(default_factory=dict)
    events: Deque[str] = field(default_factory=lambda: deque(maxlen=200))

    @property
    def finished(self) -> bool:
        """Whether the campaign reached a terminal state."""
        return self.state in TERMINAL_STATES


class _CampaignScheduler:
    """Per-campaign ``BackendScheduler``-shaped view over the shared dispatcher.

    This is what makes :class:`~repro.runtime.orchestrator.ShardOrchestrator`
    a library client of the service: the orchestrator keeps calling
    ``acquire``/``release``/``has_free_slot`` exactly as before, but every
    acquire now waits in the service's priority/quota queue tagged with this
    campaign's tenant and priority, and lands on the *shared* roster.
    """

    def __init__(self, dispatcher: ServiceDispatcher, campaign: Campaign) -> None:
        self._dispatcher = dispatcher
        self._campaign = campaign

    @property
    def backends(self) -> List[ExecutionBackend]:
        """The shared roster, in declaration order."""
        return self._dispatcher.scheduler.backends

    def describe(self) -> str:
        """One-line roster summary (delegates to the shared scheduler)."""
        return self._dispatcher.scheduler.describe()

    def has_free_slot(self, *, avoid: Optional[ExecutionBackend] = None) -> bool:
        """Whether an acquire could proceed now (quota headroom and a slot)."""
        return self._dispatcher.has_headroom(self._campaign.spec.tenant, avoid=avoid)

    async def acquire(self, *, avoid: Optional[ExecutionBackend] = None) -> ExecutionBackend:
        """Queue behind priority/quota admission, then take a shared slot."""
        spec = self._campaign.spec
        return await self._dispatcher.acquire(
            spec.tenant,
            spec.priority,
            avoid=avoid,
            meta={"campaign": self._campaign.id, "label": spec.label},
        )

    async def release(self, backend: ExecutionBackend) -> None:
        """Return the slot and the tenant's admission."""
        await self._dispatcher.release(self._campaign.spec.tenant, backend)


class CampaignService:
    """A resident multi-campaign orchestration service over one shared roster.

    Parameters
    ----------
    journal_dir:
        The shared journal store.  Each campaign journals into
        ``<journal_dir>/<label>/``; the service's own submission/state
        journal is ``<journal_dir>/service.campaigns.jsonl``.
    backends:
        The shared :class:`~repro.runtime.backends.ExecutionBackend` roster
        every campaign's shard attempts are scheduled onto (default: one
        unbounded local backend).
    quotas / default_quota:
        Per-tenant caps on *concurrently running shard attempts* (see
        :class:`~repro.runtime.service_queue.QuotaQueue`).
    scale:
        Default workload scale for submissions that do not name one.
    cache_dir:
        Policy cache shared by plan building and every shard subprocess.
    resume:
        Re-adopt unfinished campaigns from the service journal on
        :meth:`start` — the crash-safe restart path.
    inject_kill_shard:
        Chaos hook forwarded to every campaign's orchestrator: kill that
        shard's first attempt once it has journaled a cell.
    ingest_on_completion:
        After each merge, ingest the campaign's journal directory into
        ``<journal_dir>/store.sqlite`` (the PR 7 result store).
    plan_factory / command_factory:
        Testing hooks.  ``plan_factory(spec)`` replaces plan building;
        ``command_factory(campaign)`` returns the per-attempt command hook
        handed to the campaign's orchestrator — hermetic tests drive fake
        shard workers through the whole service stack with these.
    on_event:
        Callback receiving human-readable progress lines (``None`` = silent).
    """

    def __init__(
        self,
        journal_dir,
        *,
        backends: Optional[Sequence[ExecutionBackend]] = None,
        quotas: Optional[Dict[str, int]] = None,
        default_quota: Optional[int] = None,
        scale: str = "fast",
        cache_dir=None,
        max_retries: int = 2,
        stall_timeout: Optional[float] = None,
        poll_interval: float = 0.5,
        resume: bool = False,
        inject_kill_shard: Optional[int] = None,
        ingest_on_completion: bool = False,
        plan_factory: Optional[Callable[[CampaignSpec], object]] = None,
        command_factory: Optional[Callable[[Campaign], CommandFactory]] = None,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        check_settings(
            scale=scale,
            max_retries=max_retries,
            poll_interval=poll_interval,
            stall_timeout=stall_timeout,
            inject_kill_shard=inject_kill_shard,
        )
        self.journal_dir = Path(journal_dir)
        self.backends: List[ExecutionBackend] = list(backends or [LocalProcessBackend()])
        self.dispatcher = ServiceDispatcher(
            BackendScheduler(self.backends), quotas=quotas, default_quota=default_quota
        )
        self.scale = scale
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_retries = int(max_retries)
        self.stall_timeout = stall_timeout
        self.poll_interval = float(poll_interval)
        self.resume = bool(resume)
        self.inject_kill_shard = inject_kill_shard
        self.ingest_on_completion = bool(ingest_on_completion)
        self.plan_factory = plan_factory
        self.command_factory = command_factory
        self.on_event = on_event
        self.campaigns: Dict[str, Campaign] = {}
        self._next_number = 1
        self._handle = None
        # Plan building trains (or cache-loads) pretrained baselines; two
        # campaigns planning at once could race to train the same policy,
        # so planning is serialized service-wide.
        self._plan_lock = asyncio.Lock()

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> List[Campaign]:
        """Prepare the roster, open the service journal, re-adopt if resuming.

        Returns the re-adopted campaigns (empty unless ``resume=True`` found
        unfinished submissions from a previous daemon life).
        """
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        for backend in self.backends:
            backend.prepare(self.journal_dir)
        # Tail-tolerant: a mid-kill partial write ends the readable records.
        records = [
            record for record, _ in journal_records(self._journal_path) if isinstance(record, dict)
        ]
        for record in records:
            number = _campaign_number(record.get("id", ""))
            if number is not None:
                self._next_number = max(self._next_number, number + 1)
        self._handle = open(self._journal_path, "a", encoding="utf8")
        adopted: List[Campaign] = []
        if self.resume:
            for campaign_id, spec_payload in self._unfinished(records):
                try:
                    spec = CampaignSpec.from_dict(spec_payload)
                except ServiceError as error:
                    self._emit(f"{campaign_id}: not re-adopted — {error}")
                    continue
                campaign = await self.submit(spec, campaign_id=campaign_id, adopted=True)
                adopted.append(campaign)
                self._emit(
                    f"{campaign.id} {spec.label}: re-adopted — resuming from "
                    f"journals in {campaign.dir}"
                )
        return adopted

    async def close(self) -> None:
        """Stop every active campaign *without* journaling a terminal state.

        Daemon shutdown is not cancellation: the in-flight campaigns keep
        their submitted-but-unfinished journal records, which is exactly what
        a later ``resume=True`` start re-adopts.
        """
        active = [c for c in self.campaigns.values() if c.task is not None and not c.finished]
        for campaign in active:
            campaign.task.cancel()
        if active:
            await asyncio.gather(*(c.task for c in active), return_exceptions=True)
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # --------------------------------------------------------------- submission
    async def submit(
        self,
        spec: CampaignSpec,
        *,
        campaign_id: Optional[str] = None,
        adopted: bool = False,
    ) -> Campaign:
        """Accept one campaign and start driving it; returns immediately.

        Raises :class:`ServiceError` if the label is already in flight —
        naming the in-flight campaign's plan fingerprint, so the caller can
        tell "same plan, wait for it" from "different plan, pick a label".
        """
        if self._handle is None:
            raise ServiceError("service not started (call start() first)")
        spec.validate()
        active = self._active_by_label(spec.label)
        if active is not None:
            raise ServiceError(
                f"label {spec.label!r} is already in flight as campaign {active.id} "
                f"(plan fingerprint {active.fingerprint or 'pending'}); cancel it "
                "or submit under a different label"
            )
        if campaign_id is None:
            campaign_id = f"c{self._next_number:04d}"
            self._next_number += 1
        campaign = Campaign(
            id=campaign_id,
            spec=spec,
            dir=self.journal_dir / spec.label,
            adopted=adopted,
        )
        for index in range(1, spec.shards + 1):
            shard = ShardSpec(index, spec.shards)
            campaign.probers[shard.describe()] = JournalProgress(
                shard.journal_path(campaign.dir, spec.experiment_id)
            )
        self.campaigns[campaign.id] = campaign
        self._journal_record({"kind": "campaign", "id": campaign.id, "spec": spec.as_dict()})
        campaign.task = asyncio.ensure_future(self._run_campaign(campaign))
        self._emit(
            f"{campaign.id} {spec.label}: submitted (tenant {spec.tenant}, "
            f"priority {spec.priority}, {spec.shards} shard(s))"
        )
        return campaign

    async def cancel(self, target: str) -> Campaign:
        """Cancel an in-flight campaign by id or label and journal the fact.

        The campaign task's cancellation unwinds through the orchestrator's
        cleanup, which kills every in-flight shard attempt (process groups
        and remote jobs alike) before this method journals the ``cancelled``
        record with the per-shard cell counts that survive in the journals.
        """
        campaign = self.resolve(target)
        if campaign.finished:
            raise ServiceError(
                f"campaign {campaign.id} ({campaign.spec.label}) is already "
                f"{campaign.state} and cannot be cancelled"
            )
        campaign.task.cancel()
        await asyncio.gather(campaign.task, return_exceptions=True)
        campaign.state = "cancelled"
        campaign.error = "cancelled by request"
        self._journal_terminal(campaign)
        self._emit(f"{campaign.id} {campaign.spec.label}: cancelled")
        return campaign

    # ------------------------------------------------------------------ running
    async def _run_campaign(self, campaign: Campaign) -> None:
        """Drive one campaign: plan, orchestrate, merge, save, journal."""
        spec = campaign.spec
        request = replace(
            spec.request, scale=spec.request.scale or self.scale, cache_dir=self.cache_dir
        )
        started = time.monotonic()
        try:
            campaign.state = "planning"
            runner = request.runner(journal_dir=campaign.dir)
            async with self._plan_lock:
                if self.plan_factory is not None:
                    plan = self.plan_factory(spec)
                else:
                    plan = await asyncio.to_thread(runner.plan, spec.experiment_id)
            campaign.fingerprint = plan_fingerprint(plan)
            orchestrator = ShardOrchestrator(
                spec.experiment_id,
                spec.shards,
                runner,
                plan=plan,
                scheduler=_CampaignScheduler(self.dispatcher, campaign),
                prepare_backends=False,
                shard_args=request.to_argv(),
                max_retries=self.max_retries,
                stall_timeout=self.stall_timeout,
                poll_interval=self.poll_interval,
                inject_kill_shard=self.inject_kill_shard,
                command_factory=(
                    self.command_factory(campaign) if self.command_factory is not None else None
                ),
                on_event=lambda message: self._campaign_event(campaign, message),
            )
            campaign.state = "running"
            report = await orchestrator.run_async()
            campaign.report = report
            if report.result is not None:
                await asyncio.to_thread(
                    save_result, campaign.dir, spec.experiment_id, report.result
                )
            if self.ingest_on_completion:
                await asyncio.to_thread(self._ingest, campaign)
            campaign.duration_seconds = time.monotonic() - started
            campaign.state = "merged"
            self._journal_terminal(campaign)
            self._emit(f"{campaign.id} {spec.label}: merged")
        except asyncio.CancelledError:
            # cancel() / close() own the terminal bookkeeping; the journal
            # record (or its deliberate absence, for shutdown) is theirs.
            campaign.duration_seconds = time.monotonic() - started
            raise
        except Exception as error:
            campaign.duration_seconds = time.monotonic() - started
            campaign.state = "failed"
            campaign.error = str(error)
            self._journal_terminal(campaign)
            self._emit(f"{campaign.id} {spec.label}: FAILED — {error}")

    def _ingest(self, campaign: Campaign) -> None:
        """Fold the campaign's journal directory into the shared result store."""
        from repro.runtime.store import ResultStore

        with ResultStore(self.journal_dir / "store.sqlite") as store:
            store.ingest(campaign.dir)

    # ------------------------------------------------------------------- status
    def resolve(self, target: str) -> Campaign:
        """The campaign named by ``target`` — an id first, then a label.

        Labels can recur across finished campaigns; the newest submission
        wins, matching what "status fig6a" should mean operationally.
        """
        campaign = self.campaigns.get(target)
        if campaign is not None:
            return campaign
        matches = [c for c in self.campaigns.values() if c.spec.label == target]
        if matches:
            return matches[-1]
        raise ServiceError(f"no campaign with id or label {target!r}")

    def _active_by_label(self, label: str) -> Optional[Campaign]:
        """The in-flight campaign holding ``label``, if any."""
        for campaign in self.campaigns.values():
            if campaign.spec.label == label and not campaign.finished:
                return campaign
        return None

    def progress(self, campaign: Campaign) -> Dict[str, int]:
        """Per-shard completed-cell counts, polled O(new bytes) per shard."""
        return {
            shard: prober.poll() for shard, prober in sorted(campaign.probers.items())
        }

    def campaign_status(self, campaign: Campaign) -> dict:
        """The JSON status of one campaign, as served by the API."""
        return {
            "id": campaign.id,
            "label": campaign.spec.label,
            "experiment_id": campaign.spec.experiment_id,
            "tenant": campaign.spec.tenant,
            "priority": campaign.spec.priority,
            "state": campaign.state,
            "fingerprint": campaign.fingerprint,
            "shards": self.progress(campaign),
            "error": campaign.error,
            "adopted": campaign.adopted,
            "duration_seconds": round(campaign.duration_seconds, 3),
            "events": list(campaign.events)[-10:],
        }

    def describe(self) -> dict:
        """Service-wide JSON status: roster, quotas, campaign states."""
        states: Dict[str, int] = {}
        for campaign in self.campaigns.values():
            states[campaign.state] = states.get(campaign.state, 0) + 1
        return {
            "journal_dir": str(self.journal_dir),
            "backends": [backend.describe() for backend in self.backends],
            "total_slots": self.dispatcher.scheduler.total_slots,
            "quotas": [
                {"tenant": tenant, "quota": quota, "in_use": in_use}
                for tenant, quota, in_use in self.dispatcher.queue.describe_quotas()
            ],
            "campaigns": {state: states[state] for state in sorted(states)},
        }

    def render_dry_run(self) -> str:
        """The resolved roster and quota table, for ``serve --dry-run``."""
        lines = [f"journal store: {self.journal_dir}"]
        lines.append(f"backends: {self.dispatcher.scheduler.describe()}")
        total = self.dispatcher.scheduler.total_slots
        lines.append(f"total slots: {'unbounded' if total is None else total}")
        quota_rows = self.dispatcher.queue.describe_quotas()
        if quota_rows:
            lines.append("quotas (max concurrent shard attempts per tenant):")
            for tenant, quota, _ in quota_rows:
                lines.append(f"  {tenant:16s} {quota}")
        else:
            lines.append("quotas: none (every tenant unbounded)")
        lines.append("dry run: nothing started")
        return "\n".join(lines)

    async def stream(self, campaign: Campaign, *, poll_interval: Optional[float] = None):
        """Async iterator of tail events for one campaign.

        Yields a ``snapshot`` event first, then a ``progress`` event per
        shard whose journaled cell count changed, and finally one ``state``
        event when the campaign reaches a terminal state (then stops).
        Multiple consumers can stream one campaign: each holds its own
        cursor dict, while cell counts come from the shared probers.
        """
        interval = self.poll_interval if poll_interval is None else float(poll_interval)
        yield {"event": "snapshot", **self.campaign_status(campaign)}
        seen: Dict[str, int] = {}
        while True:
            # Snapshot the terminal state *before* polling: progress events
            # always land before the final state event even if the campaign
            # finishes mid-poll.
            finished = campaign.finished
            for shard, cells in sorted(self.progress(campaign).items()):
                if seen.get(shard) != cells:
                    seen[shard] = cells
                    yield {
                        "event": "progress",
                        "id": campaign.id,
                        "label": campaign.spec.label,
                        "shard": shard,
                        "cells": cells,
                    }
            if finished:
                yield {
                    "event": "state",
                    "id": campaign.id,
                    "label": campaign.spec.label,
                    "state": campaign.state,
                    "fingerprint": campaign.fingerprint,
                    "error": campaign.error,
                }
                return
            await asyncio.sleep(interval)

    # ------------------------------------------------------------ service journal
    @property
    def _journal_path(self) -> Path:
        """The service's own submission/state journal file."""
        return self.journal_dir / SERVICE_JOURNAL_NAME

    def _unfinished(self, records: List[dict]) -> List[tuple]:
        """``(campaign_id, spec_payload)`` for submissions with no terminal record."""
        specs: Dict[str, dict] = {}
        done = set()
        order: List[str] = []
        for record in records:
            campaign_id = record.get("id")
            if not campaign_id:
                continue
            if record.get("kind") == "campaign":
                if campaign_id not in specs:
                    order.append(campaign_id)
                specs[campaign_id] = record.get("spec") or {}
                done.discard(campaign_id)
            elif record.get("kind") == "state" and record.get("state") in TERMINAL_STATES:
                done.add(campaign_id)
        return [(campaign_id, specs[campaign_id]) for campaign_id in order if campaign_id not in done]

    def _journal_record(self, record: dict) -> None:
        """Append one fsynced record to the service journal."""
        line = json.dumps(record, sort_keys=True)
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _journal_terminal(self, campaign: Campaign) -> None:
        """Journal a campaign's terminal state (merged/failed/cancelled)."""
        self._journal_record(
            {
                "kind": "state",
                "id": campaign.id,
                "label": campaign.spec.label,
                "state": campaign.state,
                "fingerprint": campaign.fingerprint,
                "error": campaign.error,
                "cells_completed": self.progress(campaign),
                "duration_seconds": round(campaign.duration_seconds, 3),
            }
        )

    # ------------------------------------------------------------------- events
    def _emit(self, message: str) -> None:
        """Send one progress line to the ``on_event`` callback, if any."""
        if self.on_event is not None:
            self.on_event(message)

    def _campaign_event(self, campaign: Campaign, message: str) -> None:
        """Record one orchestrator progress line against its campaign."""
        campaign.events.append(message)
        self._emit(f"{campaign.id} {campaign.spec.label}: {message}")


def _campaign_number(campaign_id: str) -> Optional[int]:
    """The numeric part of a ``cNNNN`` campaign id, or ``None``."""
    match = re.fullmatch(r"c(\d+)", campaign_id or "")
    return int(match.group(1)) if match else None


__all__ = [
    "Campaign",
    "CampaignService",
    "CampaignSpec",
    "SERVICE_JOURNAL_NAME",
    "ServiceError",
    "TERMINAL_STATES",
]
