"""End-to-end and chaos tests for the resident campaign service.

The service's whole reason to exist is the combination of three promises:

* a served campaign's merged payload is **byte-identical** to a one-shot
  ``orchestrate`` run of the same plan — under concurrent competing
  campaigns, under a killed shard, and across a daemon kill + restart;
* many campaigns share one roster under a **deterministic** priority/quota
  admission order (the dispatch log *is* the grant order);
* the client/server seam is **fault-isolated**: a client that disconnects
  mid-stream never takes the daemon (or a campaign, or a file descriptor)
  with it.

Every scenario here drives the real stack — service → dispatcher →
orchestrator → shard subprocesses → journals — through the same synthetic
8-cell plan the orchestrator tests use (the plan fingerprint digests cell
keys and kwargs, not function objects, so the parent's plan and the worker
script's plan journal-match by construction).  Worker behaviour knobs travel
through environment variables, which also exercises the orchestrator's env
passthrough into backends (including the fake-slurm shim).
"""

import asyncio
import json
import os
import socket
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.runtime.backends import LocalProcessBackend, build_backends
from repro.runtime.cells import CampaignPlan, CellTask
from repro.runtime.cli import main
from repro.runtime.orchestrator import ShardOrchestrator
from repro.runtime.runner import CampaignRunner
from repro.runtime.service import (
    SERVICE_JOURNAL_NAME,
    CampaignService,
    CampaignSpec,
    ServiceError,
)
from repro.runtime.service_api import ServiceAPI, ServiceClient, ServiceClientError

FAKE_SLURM = Path(__file__).resolve().parents[2] / "tools" / "fake_slurm"

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Worker script emulating one shard "machine" of a served campaign.  Knobs:
#:   SVC_TEST_SLEEP — seconds to sleep per cell (creates real contention);
#:   SVC_TEST_EXEC_LOG — append one JSON line per *executed* cell, proving
#:     which cells ran in which daemon generation;
#:   SVC_TEST_STALL_MARKER — hang *inside the third cell* (2 cells already
#:     journaled) until this file exists: freezes a campaign genuinely
#:     mid-flight for the daemon-kill/restart drill.
#: Shard kills are injected by the daemon itself (``inject_kill_shard``),
#: so the worker needs no crash knob of its own.
_WORKER_SCRIPT = textwrap.dedent(
    """
    import json
    import os
    import sys
    import time

    sys.path.insert(0, {src!r})

    from repro.runtime.cells import CampaignPlan, CellTask
    from repro.runtime.runner import CampaignRunner

    shard, journal_dir = sys.argv[1], sys.argv[2]
    resume = "--resume" in sys.argv[3:]
    shard_index = shard.split("/")[0]
    label = os.path.basename(journal_dir.rstrip("/"))

    sleep = float(os.environ.get("SVC_TEST_SLEEP", "0") or 0)
    exec_log = os.environ.get("SVC_TEST_EXEC_LOG", "")
    stall_marker = os.environ.get("SVC_TEST_STALL_MARKER", "")
    state = {{"executed": 0}}

    def cell(value):
        state["executed"] += 1
        if sleep:
            time.sleep(sleep)
        if exec_log:
            with open(exec_log, "a") as handle:
                handle.write(json.dumps([label, shard, value]) + "\\n")
        if stall_marker and state["executed"] > 2:
            while not os.path.exists(stall_marker):
                time.sleep(0.05)
        return value * 2.0

    cells = [
        CellTask("orch", ("cell", index), cell, {{"value": float(index)}})
        for index in range(8)
    ]
    plan = CampaignPlan("orch", cells, merge=list)
    runner = CampaignRunner(journal_dir=journal_dir, shard=shard, resume=resume)
    runner.run_plan(plan, journal=runner.journal_for(plan))
    """
)


def _double(value: float) -> float:
    return value * 2.0


def _plan(count: int = 8) -> CampaignPlan:
    cells = [
        CellTask("orch", ("cell", index), _double, {"value": float(index)})
        for index in range(count)
    ]
    return CampaignPlan("orch", cells, merge=list)


EXPECTED_RESULT = [float(index) * 2.0 for index in range(8)]
EXPECTED_PAYLOAD = (str(EXPECTED_RESULT) + "\n").encode("utf8")


@pytest.fixture()
def worker_script(tmp_path) -> Path:
    script = tmp_path / "shard_worker.py"
    script.write_text(_WORKER_SCRIPT.format(src=_SRC), encoding="utf8")
    return script


def _command_factory(worker_script):
    """``command_factory`` hook: each campaign's shards journal into its dir."""

    def factory(campaign):
        def command(spec, attempt_number, resume):
            argv = [sys.executable, str(worker_script), spec.describe(), str(campaign.dir)]
            if resume:
                argv.append("--resume")
            return argv

        return command

    return factory


def _service(journal_dir, worker_script, **kwargs) -> CampaignService:
    kwargs.setdefault("poll_interval", 0.05)
    kwargs.setdefault("plan_factory", lambda spec: _plan())
    kwargs.setdefault("command_factory", _command_factory(worker_script))
    return CampaignService(journal_dir, **kwargs)


async def _wait(campaign, timeout: float = 120.0) -> None:
    """Await a campaign's terminal state (exceptions stay on the campaign)."""
    await asyncio.wait_for(
        asyncio.gather(campaign.task, return_exceptions=True), timeout
    )


async def _poll_until(predicate, timeout: float = 60.0, interval: float = 0.02):
    """Spin the event loop until ``predicate()`` is truthy."""
    async def spin():
        while not predicate():
            await asyncio.sleep(interval)

    await asyncio.wait_for(spin(), timeout)


def _journaled_indices(campaign_dir: Path) -> set:
    """Plan cell indices journaled as completed across a campaign's shards."""
    indices = set()
    for path in sorted(campaign_dir.glob("*.shard-*.jsonl")):
        for line in path.read_bytes().split(b"\n")[:-1]:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if isinstance(record, dict) and record.get("kind") == "cell":
                indices.add(record["index"])
    return indices


def _executed_values(exec_log: Path) -> list:
    """The ``value`` kwargs of every cell the workers actually executed."""
    if not exec_log.exists():
        return []
    return [
        json.loads(line)[2]
        for line in exec_log.read_text(encoding="utf8").splitlines()
        if line.strip()
    ]


def _one_shot_result(tmp_path, worker_script, shards: int = 2):
    """A one-shot ``ShardOrchestrator`` run of the same plan (the baseline)."""
    journal_dir = tmp_path / "one-shot"

    def factory(spec, attempt_number, resume):
        argv = [sys.executable, str(worker_script), spec.describe(), str(journal_dir)]
        if resume:
            argv.append("--resume")
        return argv

    orchestrator = ShardOrchestrator(
        "orch",
        shards,
        CampaignRunner(journal_dir=journal_dir),
        plan=_plan(),
        command_factory=factory,
        poll_interval=0.05,
    )
    return orchestrator.run().result


def _service_journal_records(journal_dir: Path) -> list:
    return [
        json.loads(line)
        for line in (journal_dir / SERVICE_JOURNAL_NAME).read_text("utf8").splitlines()
        if line.strip()
    ]


class TestServedCampaignLifecycle:
    def test_two_priorities_share_mixed_roster_and_merge_byte_identically(
        self, tmp_path, worker_script, monkeypatch
    ):
        """The daemon-lifecycle criterion: a mixed local + fake-slurm roster,
        a low-priority 4-shard campaign saturating it, then a high-priority
        campaign arriving late — the high-priority shards must take the freed
        slots first (dispatch log order), and both merged payloads must be
        byte-identical to a one-shot orchestrate run of the same plan."""
        monkeypatch.setenv("FAKE_SLURM_STATE", str(tmp_path / "slurm-state"))
        monkeypatch.setenv("SVC_TEST_SLEEP", "0.2")
        journal_dir = tmp_path / "journals"
        backends = build_backends(["local:1", f"slurm:1,bin_dir={FAKE_SLURM},poll=0.05"])
        service = _service(journal_dir, worker_script, backends=backends)

        async def scenario():
            await service.start()
            try:
                low = await service.submit(
                    CampaignSpec("orch", label="batch", tenant="batch", priority=0, shards=4)
                )
                log = service.dispatcher.dispatch_log
                await _poll_until(lambda: len(log) >= 2)
                high = await service.submit(
                    CampaignSpec("orch", label="urgent", tenant="vip", priority=5, shards=2)
                )
                await _wait(low)
                await _wait(high)
                return low, high
            finally:
                await service.close()

        low, high = asyncio.run(scenario())

        assert low.state == "merged" and high.state == "merged"
        assert low.report.result == EXPECTED_RESULT
        assert high.report.result == EXPECTED_RESULT

        # Deterministic admission: the first two grants went to the early
        # low-priority campaign (it had the roster to itself); once its
        # shards started freeing slots, *every* waiting high-priority shard
        # dispatched before the low-priority campaign's remaining shards.
        labels = [entry["label"] for entry in service.dispatcher.dispatch_log]
        assert labels == ["batch", "batch", "urgent", "urgent", "batch", "batch"]
        # Both backends of the mixed roster actually ran shard attempts.
        assert {entry["backend"] for entry in service.dispatcher.dispatch_log} == {
            "local",
            "slurm",
        }

        # Byte-identity against a one-shot orchestrate run of the same plan.
        monkeypatch.delenv("SVC_TEST_SLEEP")
        baseline = _one_shot_result(tmp_path, worker_script)
        assert low.report.result == baseline
        expected_payload = (str(baseline) + "\n").encode("utf8")
        assert (low.dir / "orch.txt").read_bytes() == expected_payload
        assert (high.dir / "orch.txt").read_bytes() == expected_payload

        # Each campaign journaled in its own subdirectory, no collisions.
        assert _journaled_indices(low.dir) == set(range(8))
        assert _journaled_indices(high.dir) == set(range(8))

    def test_duplicate_inflight_label_refused_naming_fingerprint(
        self, tmp_path, worker_script, monkeypatch
    ):
        monkeypatch.setenv("SVC_TEST_SLEEP", "0.2")
        service = _service(tmp_path / "journals", worker_script)

        async def scenario():
            await service.start()
            try:
                campaign = await service.submit(CampaignSpec("orch", label="busy"))
                await _poll_until(lambda: campaign.fingerprint is not None)
                with pytest.raises(ServiceError) as excinfo:
                    await service.submit(CampaignSpec("orch", label="busy"))
                message = str(excinfo.value)
                assert "already in flight" in message
                assert campaign.id in message
                assert campaign.fingerprint in message
                await service.cancel(campaign.id)
            finally:
                await service.close()

        asyncio.run(scenario())

    def test_submit_before_start_refused(self, tmp_path, worker_script):
        service = _service(tmp_path / "journals", worker_script)

        async def scenario():
            with pytest.raises(ServiceError, match="not started"):
                await service.submit(CampaignSpec("orch"))

        asyncio.run(scenario())


class TestSpecValidation:
    def test_label_defaults_to_experiment_id(self):
        assert CampaignSpec("fig6a").label == "fig6a"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"label": "../escape"},
            {"label": ".hidden"},
            {"tenant": ""},
            {"shards": 0},
            {"workers_per_shard": 0},
            {"batch_cells": 0},
            {"scale": "galactic"},
            {"vectorize": "maybe"},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            CampaignSpec("orch", **kwargs).validate()

    def test_from_dict_round_trips_and_ignores_extras(self):
        spec = CampaignSpec("orch", label="x", tenant="t", priority=3, shards=4)
        payload = dict(spec.as_dict(), unknown_future_field=True)
        assert CampaignSpec.from_dict(payload) == spec

    def test_from_dict_requires_experiment_id(self):
        with pytest.raises(ServiceError):
            CampaignSpec.from_dict({"label": "nameless"})


class TestServiceJournalFormat:
    def test_literal_journal_record_readopts_and_launches_the_same_shard_argv(self, tmp_path):
        """Pins the ``service.campaigns.jsonl`` format documented in
        docs/RESULTS.md: a submission record written in exactly that form is
        re-adopted under ``resume=True`` with the same spec, its shards are
        launched with the request's argv, a campaign with a terminal record
        is not re-adopted, and a partial trailing write is ignored."""
        journal_dir = tmp_path / "journals"
        journal_dir.mkdir()
        (journal_dir / SERVICE_JOURNAL_NAME).write_text(
            '{"kind": "campaign", "id": "c0003", "spec": {"experiment_id": "orch", '
            '"label": "done", "tenant": "bob", "priority": 0, "shards": 2, "scale": null, '
            '"seed": null, "workers_per_shard": 1, "batch_cells": 1, "vectorize": "auto"}}\n'
            '{"kind": "state", "id": "c0003", "label": "done", "state": "merged", '
            '"fingerprint": "f00d", "error": null, "cells_completed": {"1/2": 4, "2/2": 4}, '
            '"duration_seconds": 1.5}\n'
            '{"kind": "campaign", "id": "c0007", "spec": {"experiment_id": "orch", '
            '"label": "alice-sweep", "tenant": "alice", "priority": 10, "shards": 2, '
            '"scale": null, "seed": 7, "workers_per_shard": 3, "batch_cells": 2, '
            '"vectorize": "off"}}\n'
            '{"kind": "state", "id": "c0007", "sta',
            encoding="utf8",
        )

        class Recording(LocalProcessBackend):
            """Records each shard argv instead of launching it."""

            commands = []

            async def launch(self, command, *, env=None):
                self.commands.append(list(command))
                raise RuntimeError("recording only")

        cache_dir = tmp_path / "cache"
        service = CampaignService(
            journal_dir,
            backends=[Recording()],
            scale="tiny",
            cache_dir=cache_dir,
            resume=True,
            max_retries=0,
            poll_interval=0.05,
            plan_factory=lambda spec: _plan(),
        )

        async def scenario():
            adopted = await service.start()
            try:
                await asyncio.gather(*(campaign.task for campaign in adopted))
                return adopted
            finally:
                await service.close()

        [campaign] = asyncio.run(scenario())
        assert campaign.id == "c0007" and campaign.adopted
        assert campaign.spec == CampaignSpec(
            "orch", label="alice-sweep", tenant="alice", priority=10, shards=2,
            seed=7, workers_per_shard=3, batch_cells=2, vectorize="off",
        )
        shard_dir = str(journal_dir / "alice-sweep")
        assert sorted(Recording.commands) == [
            [
                sys.executable, "-m", "repro.runtime.cli", "orch",
                "--shard", f"{index}/2", "--journal-dir", shard_dir,
                "--scale", "tiny", "--workers", "3", "--batch-cells", "2",
                "--vectorize", "off", "--seed", "7", "--cache-dir", str(cache_dir),
            ]
            for index in (1, 2)
        ]
        assert campaign.state == "failed"  # nothing really launched


class TestChaosShardKill:
    def test_shard_killed_through_daemon_resumes_and_merges_byte_identically(
        self, tmp_path, worker_script, monkeypatch
    ):
        """Chaos drill 1: the daemon's ``--inject-kill-shard`` hook kills a
        shard's first attempt mid-run; the retry resumes from the journal and
        the payload still byte-matches the one-shot run."""
        monkeypatch.setenv("SVC_TEST_SLEEP", "0.1")
        service = _service(
            tmp_path / "journals", worker_script, inject_kill_shard=1, max_retries=2
        )

        async def scenario():
            await service.start()
            try:
                campaign = await service.submit(CampaignSpec("orch", label="chaos", shards=2))
                await _wait(campaign)
                return campaign
            finally:
                await service.close()

        campaign = asyncio.run(scenario())

        assert campaign.state == "merged"
        assert campaign.report.result == EXPECTED_RESULT
        shard1 = campaign.report.outcomes[0]
        assert len(shard1.attempts) >= 2
        assert "injected kill" in shard1.attempts[0].reason
        assert all(attempt.resumed for attempt in shard1.attempts[1:])

        monkeypatch.delenv("SVC_TEST_SLEEP")
        baseline = _one_shot_result(tmp_path, worker_script)
        assert (campaign.dir / "orch.txt").read_bytes() == (str(baseline) + "\n").encode("utf8")

        # The terminal journal record survives for post-mortems.
        records = _service_journal_records(service.journal_dir)
        terminal = [r for r in records if r.get("kind") == "state"]
        assert terminal and terminal[-1]["state"] == "merged"
        assert terminal[-1]["fingerprint"] == campaign.fingerprint


class TestChaosDaemonRestart:
    def test_daemon_kill_and_restart_readopts_without_recomputing_cells(
        self, tmp_path, worker_script, monkeypatch
    ):
        """Chaos drill 2: generation 1 is shut down mid-campaign (no terminal
        record — a daemon death, not a cancellation); generation 2 starts
        with ``resume=True``, re-adopts the campaign under its original id,
        and finishes it without re-executing a single journaled cell."""
        journal_dir = tmp_path / "journals"
        stall_marker = tmp_path / "unstall.marker"
        gen1_log = tmp_path / "gen1.exec.jsonl"
        gen2_log = tmp_path / "gen2.exec.jsonl"
        monkeypatch.setenv("SVC_TEST_STALL_MARKER", str(stall_marker))
        monkeypatch.setenv("SVC_TEST_EXEC_LOG", str(gen1_log))

        gen1 = _service(journal_dir, worker_script)

        async def generation_one():
            await gen1.start()
            campaign = await gen1.submit(CampaignSpec("orch", label="durable", shards=2))
            # Each shard journals 2 cells and then freezes on the marker —
            # a campaign caught genuinely mid-flight.
            await _poll_until(
                lambda: all(cells >= 2 for cells in gen1.progress(campaign).values())
            )
            campaign_id = campaign.id
            await gen1.close()
            return campaign_id

        campaign_id = asyncio.run(generation_one())

        # Daemon death is not cancellation: the journal holds the submission
        # but no terminal record.
        records = _service_journal_records(journal_dir)
        assert [r["kind"] for r in records if r.get("id") == campaign_id] == ["campaign"]
        journaled_before_restart = _journaled_indices(journal_dir / "durable")
        assert len(journaled_before_restart) >= 4  # 2 shards x >= 2 cells

        # Generation 2: un-freeze the workers, restart with resume.
        stall_marker.write_text("go\n", encoding="utf8")
        monkeypatch.setenv("SVC_TEST_EXEC_LOG", str(gen2_log))
        gen2 = _service(journal_dir, worker_script, resume=True)

        async def generation_two():
            adopted = await gen2.start()
            try:
                assert [campaign.id for campaign in adopted] == [campaign_id]
                campaign = adopted[0]
                assert campaign.adopted
                await _wait(campaign)
                return campaign
            finally:
                await gen2.close()

        campaign = asyncio.run(generation_two())

        assert campaign.state == "merged"
        assert campaign.report.result == EXPECTED_RESULT
        # No journaled cell was recomputed: generation 2 executed exactly the
        # complement of what generation 1 had journaled.
        gen2_executed = {int(value) for value in _executed_values(gen2_log)}
        assert gen2_executed == set(range(8)) - journaled_before_restart
        # Every first attempt of the re-adopted campaign ran with --resume.
        for outcome in campaign.report.outcomes:
            assert outcome.attempts[0].resumed


class TestCancellation:
    def test_cancel_group_kills_shards_journals_and_allows_resubmit(
        self, tmp_path, worker_script, monkeypatch
    ):
        """Cancelling an in-flight campaign kills its shard processes (no
        further journal growth), writes a ``cancelled`` record with the
        surviving per-shard counts, frees the label, and a resubmission
        resumes from the kept journals instead of recomputing them."""
        journal_dir = tmp_path / "journals"
        exec_log = tmp_path / "resubmit.exec.jsonl"
        monkeypatch.setenv("SVC_TEST_SLEEP", "0.2")
        service = _service(journal_dir, worker_script)

        async def scenario():
            await service.start()
            try:
                campaign = await service.submit(CampaignSpec("orch", label="doomed", shards=2))
                await _poll_until(
                    lambda: sum(service.progress(campaign).values()) >= 2
                )
                cancelled = await service.cancel("doomed")  # by label
                assert cancelled is campaign
                assert campaign.state == "cancelled"
                assert campaign.task.done()

                # The shard processes are dead: journals stop growing even
                # though a live shard would journal a cell every ~0.2s.
                frozen = _journaled_indices(campaign.dir)
                await asyncio.sleep(0.6)
                assert _journaled_indices(campaign.dir) == frozen

                with pytest.raises(ServiceError, match="already cancelled"):
                    await service.cancel(campaign.id)

                # The label is free again; the resubmission resumes from the
                # journals the cancellation deliberately kept.
                monkeypatch.setenv("SVC_TEST_EXEC_LOG", str(exec_log))
                monkeypatch.setenv("SVC_TEST_SLEEP", "0")
                retry = await service.submit(CampaignSpec("orch", label="doomed", shards=2))
                await _wait(retry)
                return campaign, frozen, retry
            finally:
                await service.close()

        campaign, frozen, retry = asyncio.run(scenario())

        assert retry.state == "merged"
        assert retry.report.result == EXPECTED_RESULT
        executed = {int(value) for value in _executed_values(exec_log)}
        # Not one cell journaled before the cancel was recomputed.  (The cell
        # each shard was killed *inside* never reached its journal, so it
        # legitimately re-executes.)
        assert executed.isdisjoint(frozen)

        records = _service_journal_records(journal_dir)
        cancelled_records = [
            r for r in records if r.get("kind") == "state" and r.get("state") == "cancelled"
        ]
        assert len(cancelled_records) == 1
        record = cancelled_records[0]
        assert record["id"] == campaign.id
        assert record["error"] == "cancelled by request"
        assert sum(record["cells_completed"].values()) == len(frozen)


class TestServiceAPISeam:
    def test_client_drives_full_campaign_lifecycle_over_unix_socket(
        self, tmp_path, worker_script
    ):
        """The client/server seam: submit, status, tail-to-completion and
        duplicate-refusal all through the Unix-socket HTTP API, with the
        synchronous client running in worker threads against the in-process
        daemon."""
        journal_dir = tmp_path / "journals"
        socket_path = tmp_path / "service.sock"
        service = _service(journal_dir, worker_script)
        api = ServiceAPI(service, socket_path)
        client = ServiceClient(socket_path, timeout=60)

        async def scenario():
            await service.start()
            await api.start()
            try:
                health = await asyncio.to_thread(client.health)
                assert health["status"] == "ok"
                assert health["total_slots"] is None  # default unbounded local

                created = await asyncio.to_thread(
                    client.submit, {"experiment_id": "orch", "label": "api", "shards": 2}
                )
                assert created["id"] == "c0001"
                assert created["state"] in ("queued", "planning", "running")

                events = await asyncio.to_thread(lambda: list(client.tail("api")))
                assert events[0]["event"] == "snapshot"
                assert events[-1] == {
                    "event": "state",
                    "id": "c0001",
                    "label": "api",
                    "state": "merged",
                    "fingerprint": service.campaigns["c0001"].fingerprint,
                    "error": None,
                }
                progress = [e for e in events if e["event"] == "progress"]
                assert progress and progress[-1]["cells"] >= 1

                status = await asyncio.to_thread(client.status, "api")
                assert status["state"] == "merged"
                assert status["shards"] == {"1/2": 4, "2/2": 4}

                listing = await asyncio.to_thread(client.campaigns)
                assert [c["id"] for c in listing] == ["c0001"]

                # Tail of an already-finished campaign: snapshot then state.
                replay = await asyncio.to_thread(lambda: list(client.tail("c0001")))
                assert replay[0]["event"] == "snapshot"
                assert replay[-1]["event"] == "state"

                with pytest.raises(ServiceClientError) as excinfo:
                    await asyncio.to_thread(client.status, "nonexistent")
                assert excinfo.value.status == 404

                with pytest.raises(ServiceClientError) as excinfo:
                    await asyncio.to_thread(
                        client.submit, {"experiment_id": "orch", "shards": 0}
                    )
                assert excinfo.value.status == 400
            finally:
                await api.close()
                await service.close()

        asyncio.run(scenario())

    def test_duplicate_submit_and_cancel_through_api(
        self, tmp_path, worker_script, monkeypatch
    ):
        monkeypatch.setenv("SVC_TEST_SLEEP", "0.2")
        socket_path = tmp_path / "service.sock"
        service = _service(tmp_path / "journals", worker_script)
        api = ServiceAPI(service, socket_path)
        client = ServiceClient(socket_path, timeout=60)

        async def scenario():
            await service.start()
            await api.start()
            try:
                created = await asyncio.to_thread(
                    client.submit, {"experiment_id": "orch", "label": "busy"}
                )
                await _poll_until(
                    lambda: service.campaigns[created["id"]].fingerprint is not None
                )
                with pytest.raises(ServiceClientError) as excinfo:
                    await asyncio.to_thread(
                        client.submit, {"experiment_id": "orch", "label": "busy"}
                    )
                assert excinfo.value.status == 409
                message = str(excinfo.value)
                assert "already in flight" in message
                assert service.campaigns[created["id"]].fingerprint in message

                cancelled = await asyncio.to_thread(client.cancel, "busy")
                assert cancelled["state"] == "cancelled"
                # Cancelling a finished campaign is a 409 through the API.
                with pytest.raises(ServiceClientError) as excinfo:
                    await asyncio.to_thread(client.cancel, created["id"])
                assert excinfo.value.status == 409
            finally:
                await api.close()
                await service.close()

        asyncio.run(scenario())


class _DaemonThread:
    """Run a service + API on their own event loop in a background thread.

    This is how the synchronous client *CLI commands* get a live daemon to
    talk to from the test's main thread — the same process topology as a real
    deployment (daemon event loop on one side of the socket, blocking client
    on the other), minus the fork.
    """

    def __init__(self, service: CampaignService, api: ServiceAPI) -> None:
        self.service = service
        self.api = api
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.ready = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self._start())
        self.ready.set()
        self.loop.run_forever()
        self.loop.run_until_complete(self._stop())
        self.loop.close()

    async def _start(self) -> None:
        await self.service.start()
        await self.api.start()

    async def _stop(self) -> None:
        await self.api.close()
        await self.service.close()

    def __enter__(self) -> "_DaemonThread":
        self.thread.start()
        assert self.ready.wait(30), "daemon thread never came up"
        return self

    def __exit__(self, *exc_info) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(60)


class TestClientCommandLine:
    def test_submit_tail_status_cancel_commands_against_live_daemon(
        self, tmp_path, worker_script, capsys, monkeypatch
    ):
        """The thin client CLI against a live daemon: ``submit`` prints the
        id, ``tail`` streams to the merged state and exits 0, ``status``
        renders both the listing and the per-campaign JSON, and ``cancel``
        reports the journaled cells it kept."""
        journal_dir = tmp_path / "journals"
        socket_path = tmp_path / "service.sock"
        service = _service(journal_dir, worker_script)
        api = ServiceAPI(service, socket_path)
        sock = ["--socket", str(socket_path)]

        with _DaemonThread(service, api):
            assert main(["submit", "orch", "--label", "first", "--shards", "2"] + sock) == 0
            out = capsys.readouterr().out
            assert "[submit] c0001 first:" in out

            assert main(["tail", "first"] + sock) == 0  # exit 0 iff merged
            tail_lines = [
                json.loads(line) for line in capsys.readouterr().out.splitlines() if line
            ]
            assert tail_lines[0]["event"] == "snapshot"
            assert tail_lines[-1]["event"] == "state"
            assert tail_lines[-1]["state"] == "merged"

            assert main(["status"] + sock) == 0
            listing = capsys.readouterr().out
            assert "c0001" in listing and "merged" in listing and "cells=8" in listing

            assert main(["status", "c0001"] + sock) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["label"] == "first"
            assert status["state"] == "merged"

            # A slow second campaign, cancelled through the CLI.
            monkeypatch.setenv("SVC_TEST_SLEEP", "0.2")
            assert main(["submit", "orch", "--label", "second"] + sock) == 0
            capsys.readouterr()
            assert main(["cancel", "second"] + sock) == 0
            out = capsys.readouterr().out
            assert "[cancel] c0002 second: cancelled" in out
            assert "kept for a future resume" in out

            # Tailing a cancelled campaign ends on its terminal state: exit 1.
            assert main(["tail", "second"] + sock) == 1
            capsys.readouterr()

        # The daemon journaled both campaigns' fates for the next generation.
        kinds = [
            (record.get("kind"), record.get("state"))
            for record in _service_journal_records(journal_dir)
        ]
        assert ("state", "merged") in kinds
        assert ("state", "cancelled") in kinds

        assert (journal_dir / "first" / "orch.txt").read_bytes() == EXPECTED_PAYLOAD


class TestChaosTailDisconnect:
    def test_rude_tail_disconnects_leave_daemon_serving_without_fd_leak(
        self, tmp_path, worker_script, monkeypatch
    ):
        """Chaos drill 3: clients that connect to the tail stream, read a
        little and slam the connection shut must not leak file descriptors
        in the daemon or disturb the campaign — afterwards the daemon still
        answers /health and the campaign still merges byte-identically."""
        monkeypatch.setenv("SVC_TEST_SLEEP", "0.25")
        socket_path = tmp_path / "service.sock"
        service = _service(tmp_path / "journals", worker_script)
        api = ServiceAPI(service, socket_path)
        client = ServiceClient(socket_path, timeout=60)

        def rude_tail():
            connection = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            connection.settimeout(10)
            try:
                connection.connect(str(socket_path))
                connection.sendall(
                    b"GET /campaigns/leaky/tail HTTP/1.1\r\n"
                    b"Host: localhost\r\n\r\n"
                )
                connection.recv(512)  # read the head + a little, then vanish
            finally:
                connection.close()

        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        async def scenario():
            await service.start()
            await api.start()
            try:
                campaign = await service.submit(
                    CampaignSpec("orch", label="leaky", shards=2)
                )
                await _poll_until(lambda: campaign.state == "running")
                baseline = open_fds()
                for _ in range(5):
                    await asyncio.to_thread(rude_tail)
                # Every rude connection's fd must be reclaimed.  (Shard
                # subprocesses finishing can only *lower* the count below
                # the baseline, never mask a leak.)
                await _poll_until(lambda: open_fds() <= baseline, timeout=30)

                health = await asyncio.to_thread(client.health)
                assert health["status"] == "ok"
                await _wait(campaign)
                return campaign
            finally:
                await api.close()
                await service.close()

        campaign = asyncio.run(scenario())
        assert campaign.state == "merged"
        assert campaign.report.result == EXPECTED_RESULT
        assert (campaign.dir / "orch.txt").read_bytes() == EXPECTED_PAYLOAD
