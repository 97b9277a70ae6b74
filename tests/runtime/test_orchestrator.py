"""Tests for the asyncio shard orchestrator.

The failure paths are the point: a shard whose subprocess dies mid-run must be
retried *with ``--resume``* (never recomputing journaled cells) and the merged
payload must still byte-match the unsharded run; exhausted retries must
surface a hard error naming the failing shard, with the structured report
written for post-mortems either way.

The hermetic tests drive synthetic plans through a small worker script (the
plan fingerprint digests cell keys and kwargs, not the function object, so
the parent's plan and the script's plan journal-match by construction).  The
end-to-end test exercises the real CLI on fig6a at tiny scale — the
acceptance criterion, mirrored by CI's ``orchestrate-identity`` job.
"""

import inspect
import json
import sys
import textwrap
from pathlib import Path

import pytest

import repro.runtime.orchestrator as orchestrator_module
from repro.runtime.backends import LocalProcessBackend, SSHBackend, ShardLaunch, SlurmBackend
from repro.runtime.cells import CampaignPlan, CellTask
from repro.runtime.cli import main
from repro.runtime.orchestrator import (
    OrchestratorError,
    ShardOrchestrator,
    render_k8s_manifest,
    render_slurm_script,
)
from repro.runtime.runner import CampaignRunner
from repro.runtime.scheduler import BackendScheduler

FAKE_SLURM = Path(__file__).resolve().parents[2] / "tools" / "fake_slurm"

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Worker script emulating one shard "machine".  Behaviour knobs come through
#: environment variables so the orchestrator's default env passthrough is the
#: thing under test:
#:   ORCH_TEST_CELL_COUNT — the plan's cell count (default 8, as ``_plan``);
#:   ORCH_TEST_CRASH_SHARD / ORCH_TEST_CRASH_MARKER — hard-exit (as if killed)
#:     after journaling 2 cells, once, creating the marker file;
#:   ORCH_TEST_FAIL_SHARD — exit 3 immediately, every attempt;
#:   ORCH_TEST_STALL_SHARD — hang without journaling anything.
_WORKER_SCRIPT = textwrap.dedent(
    """
    import os
    import sys
    import time

    sys.path.insert(0, {src!r})

    from repro.runtime.cells import CampaignPlan, CellTask
    from repro.runtime.runner import CampaignRunner

    shard, journal_dir = sys.argv[1], sys.argv[2]
    resume = "--resume" in sys.argv[3:]
    shard_index = shard.split("/")[0]

    if os.environ.get("ORCH_TEST_FAIL_SHARD") == shard_index:
        sys.stderr.write("synthetic shard failure\\n")
        sys.exit(3)
    if os.environ.get("ORCH_TEST_STALL_SHARD") == shard_index:
        time.sleep(120)

    marker = os.environ.get("ORCH_TEST_CRASH_MARKER", "")
    crash = (
        os.environ.get("ORCH_TEST_CRASH_SHARD") == shard_index
        and marker
        and not os.path.exists(marker)
    )
    state = {{"executed": 0}}

    def cell(value):
        state["executed"] += 1
        if crash and state["executed"] > 2:
            open(marker, "w").close()
            os._exit(137)  # as if SIGKILLed mid-run
        return value * 2.0

    cells = [
        CellTask("orch", ("cell", index), cell, {{"value": float(index)}})
        for index in range(int(os.environ.get("ORCH_TEST_CELL_COUNT", "8")))
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


@pytest.fixture()
def worker_script(tmp_path) -> Path:
    script = tmp_path / "shard_worker.py"
    script.write_text(_WORKER_SCRIPT.format(src=_SRC), encoding="utf8")
    return script


def _orchestrator(tmp_path, worker_script, **kwargs) -> ShardOrchestrator:
    journal_dir = tmp_path / "journals"

    def factory(spec, attempt_number, resume):
        command = [sys.executable, str(worker_script), spec.describe(), str(journal_dir)]
        if resume:
            command.append("--resume")
        return command

    kwargs.setdefault("plan", _plan())
    kwargs.setdefault("poll_interval", 0.05)
    return ShardOrchestrator(
        "orch",
        kwargs.pop("shard_count", 2),
        CampaignRunner(journal_dir=journal_dir),
        command_factory=factory,
        **kwargs,
    )


class TestKillRetryResume:
    def test_killed_shard_retried_with_resume_merges_byte_identically(
        self, tmp_path, worker_script, monkeypatch
    ):
        """The satellite criterion: shard 1's subprocess hard-exits after
        journaling 2 of its 4 cells; the retry resumes from the journal and
        the merged payload equals the unsharded run exactly."""
        monkeypatch.setenv("ORCH_TEST_CRASH_SHARD", "1")
        monkeypatch.setenv("ORCH_TEST_CRASH_MARKER", str(tmp_path / "crashed.marker"))
        orchestrator = _orchestrator(tmp_path, worker_script, max_retries=1)
        report = orchestrator.run()

        assert report.merged
        assert report.result == _plan().run_serial()

        crashed, clean = report.outcomes
        assert len(crashed.attempts) == 2
        assert crashed.attempts[0].reason is not None
        assert "exit status" in crashed.attempts[0].reason
        # The first attempt journaled 2 cells before dying...
        assert crashed.attempts[0].cells_completed == 2
        # ...and the retry *resumed* from them instead of restarting.
        assert crashed.attempts[1].resumed
        assert crashed.attempts[1].reason is None
        assert crashed.attempts[1].cells_completed == 4
        assert len(clean.attempts) == 1

    def test_report_written_for_post_mortems(self, tmp_path, worker_script, monkeypatch):
        monkeypatch.setenv("ORCH_TEST_CRASH_SHARD", "1")
        monkeypatch.setenv("ORCH_TEST_CRASH_MARKER", str(tmp_path / "crashed.marker"))
        orchestrator = _orchestrator(tmp_path, worker_script, max_retries=1)
        report = orchestrator.run()

        assert report.path is not None and report.path.exists()
        payload = json.loads(report.path.read_text())
        assert payload["merged"] is True
        assert payload["experiment_id"] == "orch"
        assert payload["shard_count"] == 2
        [shard1, shard2] = payload["shards"]
        assert shard1["succeeded"] and shard2["succeeded"]
        assert [attempt["resumed"] for attempt in shard1["attempts"]] == [False, True]
        assert shard1["attempts"][0]["reason"]


class TestInjectedKillDeterminism:
    def test_injection_forces_a_resumed_retry_even_if_the_shard_finishes_first(
        self, tmp_path, worker_script
    ):
        """The chaos hook must be deterministic: the hermetic worker's cells
        are near-instant, so the subprocess often exits before a poll can
        kill it — the first attempt is treated as failed regardless, and the
        retry resumes a complete journal."""
        orchestrator = _orchestrator(
            tmp_path, worker_script, max_retries=1, inject_kill_shard=1
        )
        report = orchestrator.run()
        assert report.merged
        assert report.result == _plan().run_serial()
        shard1 = report.outcomes[0]
        assert len(shard1.attempts) == 2
        assert "injected kill" in shard1.attempts[0].reason
        assert shard1.attempts[1].resumed and shard1.attempts[1].reason is None


class TestBackendFailover:
    def test_launches_go_through_backends_not_raw_subprocesses(self):
        """The tentpole's structural criterion: the orchestrator contains no
        direct ``create_subprocess_exec`` — every launch goes through a
        backend (``LocalProcessBackend`` owns the subprocess call)."""
        source = inspect.getsource(orchestrator_module)
        assert "create_subprocess_exec" not in source

    def test_killed_shard_retries_on_a_different_backend(
        self, tmp_path, worker_script, monkeypatch
    ):
        """The failover satellite: shard 1's first attempt dies on backend
        alpha; the retry must land on backend beta *with --resume*, the
        merged payload must byte-match the serial run, and the report must
        record which backend ran each attempt."""
        monkeypatch.setenv("ORCH_TEST_CRASH_SHARD", "1")
        monkeypatch.setenv("ORCH_TEST_CRASH_MARKER", str(tmp_path / "crashed.marker"))
        backends = [
            LocalProcessBackend(slots=1, name="alpha"),
            LocalProcessBackend(slots=1, name="beta"),
        ]
        orchestrator = _orchestrator(
            tmp_path, worker_script, max_retries=1, backends=backends
        )
        report = orchestrator.run()

        assert report.merged
        assert report.result == _plan().run_serial()
        crashed = report.outcomes[0]
        assert [attempt.backend for attempt in crashed.attempts] == ["alpha", "beta"]
        assert crashed.attempts[0].reason is not None
        assert crashed.attempts[1].resumed and crashed.attempts[1].reason is None
        # The structured report records the backend of every attempt.
        payload = json.loads(report.path.read_text())
        assert payload["backends"] == ["alpha[slots=1]", "beta[slots=1]"]
        recorded = [a["backend"] for a in payload["shards"][0]["attempts"]]
        assert recorded == ["alpha", "beta"]

    def test_single_backend_retries_in_place(self, tmp_path, worker_script, monkeypatch):
        """With one backend configured there is nowhere to fail over to; the
        retry reuses it (the pre-backend behaviour)."""
        monkeypatch.setenv("ORCH_TEST_CRASH_SHARD", "1")
        monkeypatch.setenv("ORCH_TEST_CRASH_MARKER", str(tmp_path / "crashed.marker"))
        orchestrator = _orchestrator(
            tmp_path, worker_script, max_retries=1,
            backends=[LocalProcessBackend(slots=2, name="only")],
        )
        report = orchestrator.run()
        assert report.merged
        assert [a.backend for a in report.outcomes[0].attempts] == ["only", "only"]

    def test_tracking_failure_is_a_failed_attempt_not_a_crash(self, tmp_path, worker_script):
        """A backend that launches fine but explodes while *tracking* the
        attempt (squeue binary vanishing mid-poll, a transient OSError) must
        become a failed attempt that fails over — never an unhandled crash
        that loses the report."""

        class _BoomLaunch(ShardLaunch):
            @property
            def finished(self):
                return True

            async def wait(self):
                raise RuntimeError("squeue exploded mid-poll")

            def kill(self):
                pass

            async def stderr(self):
                return ""

        class _BoomBackend(LocalProcessBackend):
            async def launch(self, command, *, env=None):
                return _BoomLaunch()

        orchestrator = _orchestrator(
            tmp_path, worker_script, max_retries=1, shard_count=1, plan=_plan(),
            backends=[
                _BoomBackend(slots=1, name="boom"),
                LocalProcessBackend(slots=1, name="healthy"),
            ],
        )
        report = orchestrator.run()
        assert report.merged
        [outcome] = report.outcomes
        assert [a.backend for a in outcome.attempts] == ["boom", "healthy"]
        assert "failed while tracking" in outcome.attempts[0].reason
        assert "squeue exploded" in outcome.attempts[0].reason
        assert outcome.attempts[0].returncode is None

    def test_launch_failure_is_a_failed_attempt_not_a_crash(self, tmp_path, worker_script):
        """A backend that cannot even launch (e.g. sbatch missing) must
        surface as a failed attempt with a named reason — and fail over."""
        broken = SlurmBackend(
            slots=1, name="broken-slurm",
            bin_dir=tmp_path / "nowhere", work_dir=tmp_path / "slurm-work",
            poll_interval=0.05,
        )
        healthy = LocalProcessBackend(slots=1, name="healthy")
        orchestrator = _orchestrator(
            tmp_path, worker_script, max_retries=1,
            shard_count=1, plan=_plan(), backends=[broken, healthy],
        )
        report = orchestrator.run()
        assert report.merged
        [outcome] = report.outcomes
        assert [a.backend for a in outcome.attempts] == ["broken-slurm", "healthy"]
        assert "failed to launch" in outcome.attempts[0].reason
        assert outcome.attempts[0].returncode is None


class TestDryRun:
    def test_render_dry_run_lists_assignment_and_commands(self, tmp_path, worker_script):
        backends = [
            LocalProcessBackend(slots=1, name="alpha"),
            LocalProcessBackend(slots=2, name="beta"),
        ]
        orchestrator = _orchestrator(
            tmp_path, worker_script, shard_count=4, backends=backends
        )
        text = orchestrator.render_dry_run()
        assert "alpha[slots=1], beta[slots=2]" in text
        # beta has the most free slots, then alpha ties in at 1 free.
        assert "shard 1/4 -> beta" in text
        assert "shard 2/4 -> alpha" in text or "shard 2/4 -> beta" in text
        assert "1 shard(s) queue until a slot frees" in text
        assert "nothing launched" in text
        # The exact per-shard command is shown (the worker-script factory here).
        assert "1/4" in text and str(worker_script) in text

    def test_dry_run_shows_the_remote_program_for_ssh_backends(self, tmp_path):
        orchestrator = ShardOrchestrator(
            "orch", 2, CampaignRunner(journal_dir=tmp_path / "journals"),
            backends=[SSHBackend("node7", slots=2)],
        )
        text = orchestrator.render_dry_run()
        assert "-> ssh:node7" in text
        assert "python3 -m repro.runtime.cli orch --shard 1/2" in text
        assert sys.executable not in text  # the local venv path would not exist remotely

    def test_dry_run_builds_no_plan(self, tmp_path):
        """--dry-run must not train baselines: the orchestrator's plan
        property stays untouched."""
        journal_dir = tmp_path / "journals"

        def exploding_plan(experiment_id):
            raise AssertionError("dry run must not build the plan")

        runner = CampaignRunner(journal_dir=journal_dir)
        runner.plan = exploding_plan
        orchestrator = ShardOrchestrator("orch", 2, runner)
        text = orchestrator.render_dry_run()
        assert "--shard 1/2" in text
        assert not journal_dir.exists()


class TestMergeFailure:
    def test_merge_failure_still_writes_the_report(self, tmp_path, worker_script):
        """Stale foreign shard journals in the shared store make merge_shards
        raise after every shard succeeded; the post-mortem report must land
        anyway, with the error naming the merge as the failing stage."""
        journal_dir = tmp_path / "journals"
        journal_dir.mkdir(parents=True)
        # A leftover journal from an earlier 3-way partition of the same label.
        (journal_dir / "orch.shard-1-of-3.jsonl").write_text('{"kind": "header"}\n')
        orchestrator = _orchestrator(tmp_path, worker_script)
        with pytest.raises(OrchestratorError, match="merging failed") as excinfo:
            orchestrator.run()
        report = excinfo.value.report
        assert report is not None and not report.merged
        assert report.path is not None and report.path.exists()
        payload = json.loads(report.path.read_text())
        assert payload["merged"] is False
        assert all(shard["succeeded"] for shard in payload["shards"])


class TestExhaustedRetries:
    def test_exhausted_retries_name_the_failing_shard(
        self, tmp_path, worker_script, monkeypatch
    ):
        monkeypatch.setenv("ORCH_TEST_FAIL_SHARD", "2")
        orchestrator = _orchestrator(tmp_path, worker_script, max_retries=1)
        with pytest.raises(OrchestratorError, match=r"shard\(s\) 2/2 .* failed after 2"):
            orchestrator.run()

    def test_failed_report_still_written_with_reasons(
        self, tmp_path, worker_script, monkeypatch
    ):
        monkeypatch.setenv("ORCH_TEST_FAIL_SHARD", "2")
        orchestrator = _orchestrator(tmp_path, worker_script, max_retries=1)
        with pytest.raises(OrchestratorError) as excinfo:
            orchestrator.run()
        report = excinfo.value.report
        assert report is not None and not report.merged
        assert [spec.describe() for spec in report.failed_shards] == ["2/2"]
        failing = report.outcomes[1]
        assert len(failing.attempts) == 2  # max_retries=1 -> two attempts total
        assert all(
            "exit status 3: synthetic shard failure" in attempt.reason
            for attempt in failing.attempts
        )
        payload = json.loads(report.path.read_text())
        assert payload["merged"] is False
        # The healthy shard's journal survives; only the failed one is missing.
        assert payload["shards"][0]["succeeded"] is True

    def test_stalled_shard_killed_and_reported(self, tmp_path, worker_script, monkeypatch):
        monkeypatch.setenv("ORCH_TEST_STALL_SHARD", "2")
        orchestrator = _orchestrator(
            tmp_path, worker_script, max_retries=0, stall_timeout=0.3
        )
        with pytest.raises(OrchestratorError, match="stalled"):
            orchestrator.run()


class TestGuards:
    def test_one_cell_plan_over_two_shards_merges(self, tmp_path, worker_script, monkeypatch):
        """Shard 2 owns no cell: it journals only a header, and the merge
        still folds shard 1's one cell into the unsharded payload."""
        monkeypatch.setenv("ORCH_TEST_CELL_COUNT", "1")
        events = []
        orchestrator = _orchestrator(
            tmp_path, worker_script, plan=_plan(count=1), on_event=events.append
        )
        report = orchestrator.run()
        assert report.merged
        assert report.result == _plan(count=1).run_serial()
        assert [outcome.assigned_cells for outcome in report.outcomes] == [1, 0]
        assert "note: 2 shards over 1 cells — 1 shard(s) will own no cells" in events
        empty_shard = tmp_path / "journals" / "orch.shard-2-of-2.jsonl"
        records = [json.loads(line) for line in empty_shard.read_text().splitlines()]
        assert [record["kind"] for record in records] == ["header"]

    def test_requires_journal_dir(self):
        with pytest.raises(Exception, match="journal"):
            ShardOrchestrator("orch", 2, CampaignRunner())

    def test_rejects_bad_shard_count_and_retries(self, tmp_path):
        runner = CampaignRunner(journal_dir=tmp_path)
        with pytest.raises(ValueError, match="shard count"):
            ShardOrchestrator("orch", 0, runner)
        with pytest.raises(ValueError, match="retries"):
            ShardOrchestrator("orch", 2, runner, max_retries=-1)


class TestInjectedScheduler:
    """The orchestrator as a library client of an external scheduler (the
    campaign service's seam): roster comes from the scheduler, backend
    preparation is the owner's job, and journal probing stays one prober
    per shard however many attempts happen."""

    def test_backends_and_scheduler_are_mutually_exclusive(self, tmp_path):
        runner = CampaignRunner(journal_dir=tmp_path)
        scheduler = BackendScheduler([LocalProcessBackend()])
        with pytest.raises(ValueError, match="not both"):
            ShardOrchestrator(
                "orch", 2, runner, backends=[LocalProcessBackend()], scheduler=scheduler
            )

    def test_injected_scheduler_supplies_the_roster(self, tmp_path):
        runner = CampaignRunner(journal_dir=tmp_path)
        roster = [LocalProcessBackend(slots=1), LocalProcessBackend(slots=2)]
        orchestrator = ShardOrchestrator(
            "orch", 2, runner, scheduler=BackendScheduler(roster)
        )
        assert orchestrator.backends == roster
        assert orchestrator.scheduler.backends == roster

    def test_prepare_backends_false_skips_preparation(
        self, tmp_path, worker_script, monkeypatch
    ):
        prepared = []

        class Recording(LocalProcessBackend):
            def prepare(self, journal_dir):
                prepared.append(journal_dir)

        shared = BackendScheduler([Recording()])
        orchestrator = _orchestrator(
            tmp_path, worker_script, scheduler=shared, prepare_backends=False
        )
        report = orchestrator.run()
        assert report.merged
        assert prepared == []  # the scheduler's owner prepared it already

        # The default (owning the roster) still prepares per run.
        own = _orchestrator(tmp_path / "own", worker_script, backends=[Recording()])
        own.run()
        assert prepared == [own.journal_dir]

    def test_one_journal_prober_per_shard_across_retries(
        self, tmp_path, worker_script, monkeypatch
    ):
        """Satellite regression: retries must reuse the shard's incremental
        prober (O(new bytes) total) instead of constructing a fresh one —
        which would re-read the whole journal from offset zero — per
        attempt."""
        constructed = []
        real = orchestrator_module.JournalProgress

        def counting(path):
            constructed.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(orchestrator_module, "JournalProgress", counting)
        monkeypatch.setenv("ORCH_TEST_CRASH_SHARD", "1")
        monkeypatch.setenv("ORCH_TEST_CRASH_MARKER", str(tmp_path / "crashed.marker"))
        orchestrator = _orchestrator(tmp_path, worker_script, max_retries=2)
        report = orchestrator.run()

        assert report.merged
        assert len(report.outcomes[0].attempts) == 2  # the kill forced a retry
        # Exactly one prober per shard, not one per attempt.
        assert sorted(constructed) == sorted(
            spec.journal_name("orch") for spec in orchestrator.shard_specs()
        )


class TestClusterTemplates:
    def test_slurm_template_renders_shard_commands(self):
        script = render_slurm_script(
            "fig6a", 16, journal_dir="/shared/journals", workers_per_shard=4,
            shard_args=("--scale", "paper"),
        )
        assert "#SBATCH --array=1-16" in script
        assert "#SBATCH --cpus-per-task=4" in script
        assert "#SBATCH --requeue" in script
        assert '--shard "${SLURM_ARRAY_TASK_ID}/16"' in script
        assert "--scale paper" in script
        assert "--resume" in script
        assert "--merge-only" in script  # the post-array merge hint

    def test_k8s_template_renders_indexed_job(self):
        manifest = render_k8s_manifest(
            "fig6a", 8, journal_dir="/shared/journals", workers_per_shard=2
        )
        assert "completionMode: Indexed" in manifest
        assert "completions: 8" in manifest
        assert "parallelism: 8" in manifest
        assert '--shard "$((JOB_COMPLETION_INDEX + 1))/8"' in manifest
        assert "--resume" in manifest
        assert "persistentVolumeClaim" in manifest


class TestOrchestrateCLIEndToEnd:
    def test_fig6a_orchestrate_identity_with_injected_failure(
        self, tmp_path, policy_cache
    ):
        """The acceptance criterion: ``orchestrate fig6a --shards 2`` with an
        injected first-attempt kill of shard 1 produces a payload
        byte-identical to the unsharded CLI run (CI's ``orchestrate-identity``
        job runs the same flow from the shell)."""
        cache = str(policy_cache.cache_dir)
        single = tmp_path / "single"
        orch = tmp_path / "orch"
        journals = tmp_path / "journals"

        assert main(
            ["fig6a", "--scale", "tiny", "--cache-dir", cache, "--output", str(single)]
        ) == 0
        assert main(
            [
                "orchestrate", "fig6a", "--shards", "2", "--scale", "tiny",
                "--cache-dir", cache, "--journal-dir", str(journals),
                "--output", str(orch), "--inject-kill-shard", "1",
                "--max-retries", "2", "--poll-interval", "0.1",
            ]
        ) == 0

        assert (orch / "fig6a.json").read_bytes() == (single / "fig6a.json").read_bytes()
        assert (orch / "fig6a.txt").read_bytes() == (single / "fig6a.txt").read_bytes()

        report = json.loads((journals / "fig6a.orchestrator.json").read_text())
        assert report["merged"] is True
        shard1 = report["shards"][0]
        # The injected kill forced at least one retry, and every retry resumed.
        assert len(shard1["attempts"]) >= 2
        assert all(attempt["resumed"] for attempt in shard1["attempts"][1:])
        assert "injected kill" in shard1["attempts"][0]["reason"]

    def test_fig6a_mixed_backend_identity_with_failover(
        self, tmp_path, policy_cache, monkeypatch
    ):
        """The acceptance criterion: a mixed-backend run (local + the
        fake-slurm shim) with an injected kill of shard 1 fails over to the
        other backend and still merges a payload byte-identical to a
        single-machine run (CI's ``backend-identity`` job runs the same flow
        from the shell)."""
        monkeypatch.setenv("FAKE_SLURM_STATE", str(tmp_path / "slurm-state"))
        cache = str(policy_cache.cache_dir)
        single = tmp_path / "single"
        mixed = tmp_path / "mixed"
        journals = tmp_path / "journals"

        assert main(
            ["fig6a", "--scale", "tiny", "--cache-dir", cache, "--output", str(single)]
        ) == 0
        assert main(
            [
                "orchestrate", "fig6a", "--shards", "2", "--scale", "tiny",
                "--cache-dir", cache, "--journal-dir", str(journals),
                "--output", str(mixed),
                "--backend", "local:1",
                "--backend", f"slurm:1,bin_dir={FAKE_SLURM},poll=0.1",
                "--inject-kill-shard", "1",
                "--max-retries", "2", "--poll-interval", "0.1",
            ]
        ) == 0

        assert (mixed / "fig6a.json").read_bytes() == (single / "fig6a.json").read_bytes()
        assert (mixed / "fig6a.txt").read_bytes() == (single / "fig6a.txt").read_bytes()

        report = json.loads((journals / "fig6a.orchestrator.json").read_text())
        assert report["merged"] is True
        assert report["backends"] == ["local[slots=1]", "slurm[slots=1]"]
        shard1 = report["shards"][0]
        assert "injected kill" in shard1["attempts"][0]["reason"]
        assert shard1["attempts"][0]["backend"] == "local"
        # The retry failed over to the fake-slurm backend, with --resume.
        assert shard1["attempts"][-1]["backend"] == "slurm"
        assert all(attempt["resumed"] for attempt in shard1["attempts"][1:])
        # Shard 2's first (and only) attempt ran as a fake-slurm job.
        shard2 = report["shards"][1]
        assert shard2["attempts"][0]["backend"] == "slurm"
        assert shard2["succeeded"]
