"""Argument validation tests for the ``repro-campaign`` CLI.

These exercise the parser layer, plus shard, merge-only and orchestrate
round trips of the cheapest artifacts (fig3e, fig9) — campaign execution is
otherwise covered by ``test_campaign_runner.py``/``test_sharding.py`` and the
CI jobs.
"""

import shlex
import sys

import pytest

from repro.runtime.cli import main

#: ``orchestrate fig6a --shards 4 --scale paper --workers-per-shard 8
#: --journal-dir /shared/journals --emit-slurm/--emit-k8s`` output, pinned
#: byte for byte: cluster templates must not drift with CLI refactors.  A
#: single trailing backslash continues the string: each shard command renders
#: on one line.
_SLURM_TEMPLATE = """\
#!/bin/bash
#SBATCH --job-name=frlfi-fig6a
#SBATCH --array=1-4
#SBATCH --ntasks=1
#SBATCH --cpus-per-task=8
#SBATCH --time=04:00:00
#SBATCH --requeue
# One array task per shard; --resume makes a requeued task continue from its
# journal in the shared store instead of recomputing finished cells.
repro-campaign fig6a --shard "${SLURM_ARRAY_TASK_ID}/4" --journal-dir /shared/journals \
--workers 8 --scale paper --resume

# After the whole array completes, merge from any node:
#   repro-campaign fig6a --merge-only \\
#     --journal-dir /shared/journals --output results/
"""

_K8S_TEMPLATE = """\
apiVersion: batch/v1
kind: Job
metadata:
  name: frlfi-fig6a
spec:
  completions: 4
  parallelism: 4
  completionMode: Indexed
  backoffLimit: 12
  template:
    spec:
      restartPolicy: OnFailure
      containers:
        - name: shard
          image: frl-fi-repro:latest
          command: ["/bin/sh", "-c"]
          args:
            - repro-campaign fig6a --shard "$((JOB_COMPLETION_INDEX + 1))/4" \
--journal-dir /shared/journals --workers 8 --scale paper --resume
          volumeMounts:
            - name: journals
              mountPath: /shared/journals
      volumes:
        - name: journals
          persistentVolumeClaim:
            claimName: frlfi-journals
# After the Job completes, merge from any pod mounting the journal volume:
#   repro-campaign fig6a --merge-only --journal-dir /shared/journals --output results/
"""


def _error_text(capsys) -> str:
    return capsys.readouterr().err


@pytest.fixture(scope="module")
def unsharded(tmp_path_factory):
    """Artifact id -> the bytes of its unsharded tiny-scale CLI payload."""
    root = tmp_path_factory.mktemp("unsharded")
    payloads = {}

    def payload(experiment_id: str) -> bytes:
        if experiment_id not in payloads:
            assert main(
                [experiment_id, "--scale", "tiny", "--cache-dir", str(root / "cache"),
                 "--output", str(root / "out")]
            ) == 0
            payloads[experiment_id] = (root / "out" / f"{experiment_id}.json").read_bytes()
        return payloads[experiment_id]

    return payload


class TestWorkerValidation:
    @pytest.mark.parametrize("workers", ["-1", "-3"])
    def test_negative_workers_rejected(self, capsys, workers):
        """Regression: CampaignRunner silently clamps negative workers to 1;
        the CLI must reject them like it rejects bad --replicates."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3a", "--workers", workers])
        assert excinfo.value.code == 2
        assert "--workers must be >= 0" in _error_text(capsys)

    def test_zero_workers_means_machine_default(self, capsys):
        # 0 is valid (machine-sized pool); prove it passes the parser by
        # failing later, on the unknown-experiment check instead.
        with pytest.raises(SystemExit):
            main(["not-an-artifact", "--workers", "0"])
        assert "unknown experiments" in _error_text(capsys)


class TestShardValidation:
    @pytest.mark.parametrize("spec", ["0/2", "3/2", "a/b", "1-2", "1/0", ""])
    def test_malformed_shard_rejected(self, capsys, spec, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig6a", "--shard", spec, "--journal-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "invalid --shard" in _error_text(capsys)

    def test_shard_requires_journal_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig6a", "--shard", "1/2"])
        assert "journal store" in _error_text(capsys)

    def test_merge_only_requires_journal_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig6a", "--merge-only"])
        assert "journal store" in _error_text(capsys)

    def test_shard_and_merge_only_mutually_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig6a", "--shard", "1/2", "--merge-only", "--journal-dir", str(tmp_path)])
        assert "mutually exclusive" in _error_text(capsys)

    def test_sharded_replicates_need_explicit_seed(self, capsys, tmp_path):
        """Unseeded replicates derive from OS entropy, so each machine would
        build a different plan and shard journals could never merge."""
        with pytest.raises(SystemExit):
            main(
                ["fig6a", "--shard", "1/2", "--replicates", "2",
                 "--journal-dir", str(tmp_path)]
            )
        assert "--seed" in _error_text(capsys)

    def test_sharded_replicates_allowed_with_seed(self, capsys, tmp_path):
        # With an explicit seed the combination is valid; it passes the
        # parser and fails later only on the unknown-experiment check.
        with pytest.raises(SystemExit):
            main(
                ["nope", "--shard", "1/2", "--replicates", "2", "--seed", "7",
                 "--journal-dir", str(tmp_path)]
            )
        assert "unknown experiments" in _error_text(capsys)


class TestOrchestrateValidation:
    def test_orchestrate_requires_journal_store(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["orchestrate", "fig6a", "--shards", "2"])
        assert excinfo.value.code == 2
        assert "journal store" in _error_text(capsys)

    def test_orchestrate_requires_shards(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["orchestrate", "fig6a"])
        assert excinfo.value.code == 2
        assert "--shards" in _error_text(capsys)

    @pytest.mark.parametrize(
        ("flag", "value", "message"),
        [
            ("--shards", "0", "--shards must be >= 1"),
            ("--workers-per-shard", "0", "--workers-per-shard must be >= 1"),
            ("--max-retries", "-1", "--max-retries must be >= 0"),
            ("--batch-cells", "0", "--batch-cells must be >= 1"),
            ("--poll-interval", "0", "--poll-interval must be > 0"),
            ("--stall-timeout", "0", "--stall-timeout must be > 0"),
        ],
    )
    def test_orchestrate_rejects_bad_knobs(self, capsys, tmp_path, flag, value, message):
        argv = ["orchestrate", "fig6a", "--journal-dir", str(tmp_path)]
        if flag != "--shards":
            argv += ["--shards", "2"]
        argv += [flag, value]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in _error_text(capsys)

    @pytest.mark.parametrize("kill_shard", ["0", "3", "-1"])
    def test_orchestrate_rejects_out_of_range_inject_kill(self, capsys, tmp_path, kill_shard):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["orchestrate", "fig6a", "--shards", "2", "--journal-dir", str(tmp_path),
                 "--inject-kill-shard", kill_shard]
            )
        assert excinfo.value.code == 2
        assert "--inject-kill-shard must name a shard in 1..2" in _error_text(capsys)

    @pytest.mark.parametrize(
        ("spec", "message"),
        [
            ("teleport", "unknown backend"),
            ("local:0", "slots must be >= 1"),
            ("ssh:2", "requires a host"),
            ("slurm:1,flavor=fast", "does not accept option"),
        ],
    )
    def test_orchestrate_rejects_bad_backend_specs(self, capsys, tmp_path, spec, message):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["orchestrate", "fig6a", "--shards", "2", "--journal-dir", str(tmp_path),
                 "--backend", spec]
            )
        assert excinfo.value.code == 2
        error = _error_text(capsys)
        assert "invalid --backend" in error
        assert message in error

    def test_orchestrate_fig9_merges_the_unsharded_payload(self, tmp_path, unsharded):
        """Two shard subprocesses, one platform cell each, merge to the bytes
        of one unsharded run."""
        output = tmp_path / "orch"
        assert main(
            ["orchestrate", "fig9", "--shards", "2", "--scale", "tiny",
             "--cache-dir", str(tmp_path / "cache"), "--journal-dir", str(tmp_path / "j"),
             "--output", str(output), "--poll-interval", "0.05"]
        ) == 0
        assert (output / "fig9.json").read_bytes() == unsharded("fig9")

    def test_orchestrate_unknown_experiment_fails(self, capsys, tmp_path):
        exit_code = main(
            ["orchestrate", "nope", "--shards", "2", "--journal-dir", str(tmp_path)]
        )
        assert exit_code == 1
        assert "unknown experiment" in _error_text(capsys)

    def test_emit_templates_render_without_running(self, capsys, tmp_path):
        """--emit-slurm/--emit-k8s write ready-to-submit templates and exit 0
        without building a plan or spawning any shard."""
        slurm = tmp_path / "fig6a.sbatch"
        k8s = tmp_path / "fig6a.yaml"
        exit_code = main(
            [
                "orchestrate", "fig6a", "--shards", "4", "--scale", "paper",
                "--workers-per-shard", "8", "--journal-dir", "/shared/journals",
                "--emit-slurm", str(slurm), "--emit-k8s", str(k8s),
            ]
        )
        assert exit_code == 0
        script = slurm.read_text()
        assert "#SBATCH --array=1-4" in script
        assert '--shard "${SLURM_ARRAY_TASK_ID}/4"' in script
        assert "--scale paper" in script
        manifest = k8s.read_text()
        assert "completionMode: Indexed" in manifest
        assert '--shard "$((JOB_COMPLETION_INDEX + 1))/4"' in manifest
        assert script == _SLURM_TEMPLATE
        assert manifest == _K8S_TEMPLATE

    def test_dry_run_prints_assignment_without_launching(self, capsys, tmp_path):
        """--dry-run resolves backend specs and prints shard->backend lines
        plus exact commands; nothing runs, no plan is built, no dirs appear."""
        journal_dir = tmp_path / "journals"
        exit_code = main(
            [
                "orchestrate", "fig6a", "--shards", "3", "--scale", "tiny",
                "--journal-dir", str(journal_dir), "--dry-run",
                "--backend", "local:1", "--backend", "slurm:2,bin_dir=/opt/slurm/bin",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "local[slots=1], slurm[slots=2]" in out
        assert "shard 1/3 -> slurm" in out  # most free slots wins
        assert "shard 2/3 -> local" in out
        assert "--shard 1/3" in out and "--scale tiny" in out
        assert "nothing launched" in out
        assert not journal_dir.exists()
        program = f"{shlex.quote(sys.executable)} -m repro.runtime.cli"
        journal = shlex.quote(str(journal_dir))
        assert out == (
            "fig6a: 3 shard(s) over backends local[slots=1], slurm[slots=2]\n"
            + "".join(
                f"  shard {index}/3 -> {backend}: {program} fig6a --shard {index}/3 "
                f"--journal-dir {journal} --scale tiny --workers 1\n"
                for index, backend in ((1, "slurm"), (2, "local"), (3, "slurm"))
            )
            + "dry run: nothing launched\n"
        )

    def test_dry_run_conflicts_with_template_emission(self, capsys, tmp_path):
        """Regression: --dry-run used to silently swallow --emit-slurm (exit 0,
        no file written); the combination is now rejected up front."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["orchestrate", "fig6a", "--shards", "2",
                 "--journal-dir", str(tmp_path), "--dry-run",
                 "--emit-slurm", str(tmp_path / "fig6a.sbatch")]
            )
        assert excinfo.value.code == 2
        assert "mutually exclusive" in _error_text(capsys)
        assert not (tmp_path / "fig6a.sbatch").exists()

    def test_dry_run_with_default_backend(self, capsys, tmp_path):
        exit_code = main(
            ["orchestrate", "fig6a", "--shards", "2",
             "--journal-dir", str(tmp_path / "j"), "--dry-run"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "local[slots=unbounded]" in out
        assert "shard 1/2 -> local" in out and "shard 2/2 -> local" in out

    def test_main_help_mentions_shard_merge_resume_workflow(self, capsys):
        """Regression for the help-text satellite: the epilog shows worked
        shard / merge / resume / orchestrate examples."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "--shard 1/2 --journal-dir" in text
        assert "--merge-only --journal-dir" in text
        assert "--resume" in text
        assert "orchestrate fig6a --shards" in text


class TestExistingValidation:
    def test_resume_requires_journal(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig3a", "--resume"])
        assert "--resume needs a journal" in _error_text(capsys)

    def test_replicates_floor(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig3a", "--replicates", "0"])
        assert "--replicates" in _error_text(capsys)

    def test_merge_only_without_shard_journals_fails_per_artifact(self, capsys, tmp_path):
        """--merge-only with an empty journal store fails the artifact (exit 1)
        with the ShardMergeError surfaced, rather than silently running cells."""
        exit_code = main(["fig3a", "--merge-only", "--journal-dir", str(tmp_path)])
        assert exit_code == 1
        assert "no shard journals" in _error_text(capsys)


class TestShardedArtifacts:
    @pytest.mark.parametrize("experiment_id", ["fig3e", "fig9"])
    def test_shards_merge_to_the_unsharded_payload(self, tmp_path, unsharded, experiment_id):
        common = ["--scale", "tiny", "--cache-dir", str(tmp_path / "cache"),
                  "--journal-dir", str(tmp_path / "journals")]
        assert main([experiment_id, "--shard", "1/2", *common]) == 0
        assert main([experiment_id, "--shard", "2/2", *common]) == 0
        output = tmp_path / "merged"
        assert main([experiment_id, "--merge-only", *common, "--output", str(output)]) == 0
        assert (output / f"{experiment_id}.json").read_bytes() == unsharded(experiment_id)


def _value(x):
    return float(x)


class TestStoreSubcommands:
    @staticmethod
    def _journal(tmp_path):
        """One tiny two-cell journal directory, written via the journal layer."""
        import json as _json

        from repro.runtime.cells import CampaignPlan, CellTask
        from repro.runtime.journal import CampaignJournal

        plan = CampaignPlan(
            experiment_id="demo",
            cells=[
                CellTask(experiment_id="demo", key=("ber", i), fn=_value, kwargs={"x": i})
                for i in range(2)
            ],
            merge=list,
        )
        journal = CampaignJournal(tmp_path / "demo.jsonl", plan)
        journal.start({})
        for index in range(2):
            journal.record(index, plan.cells[index].run())
        journal.close()
        return _json

    def test_ingest_then_query_round_trip(self, capsys, tmp_path):
        json = self._journal(tmp_path)
        assert main(["ingest", str(tmp_path)]) == 0
        assert "+2 cell row(s)" in capsys.readouterr().out
        assert (tmp_path / "store.sqlite").exists()
        exit_code = main(
            ["query", "cells", "demo", "--journal-dir", str(tmp_path), "--format", "ndjson"]
        )
        assert exit_code == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert [json.loads(line)["output"] for line in lines] == [0.0, 1.0]

    def test_second_ingest_reports_zero_rows(self, capsys, tmp_path):
        self._journal(tmp_path)
        assert main(["ingest", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["ingest", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "+0 cell row(s)" in out
        assert "0 ingested" in out

    def test_query_without_store_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "campaigns"])
        assert excinfo.value.code == 2
        assert "--store" in _error_text(capsys)
        with pytest.raises(SystemExit):
            main(["query", "campaigns", "--journal-dir", str(tmp_path)])
        assert "ingest" in _error_text(capsys)

    def test_query_requires_a_canned_query_or_sql(self, capsys, tmp_path):
        self._journal(tmp_path)
        main(["ingest", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["query", "--journal-dir", str(tmp_path)])
        assert "canned query" in _error_text(capsys)
        with pytest.raises(SystemExit):
            main(["query", "cells", "demo", "--sql", "SELECT 1", "--journal-dir", str(tmp_path)])
        assert "one or the other" in _error_text(capsys)
        with pytest.raises(SystemExit):
            main(["query", "teleport", "--journal-dir", str(tmp_path)])
        assert "unknown query" in _error_text(capsys)

    def test_sql_escape_hatch(self, capsys, tmp_path):
        self._journal(tmp_path)
        main(["ingest", str(tmp_path)])
        capsys.readouterr()
        exit_code = main(
            [
                "query",
                "--sql",
                "SELECT COUNT(*) AS cells FROM cells",
                "--journal-dir",
                str(tmp_path),
                "--format",
                "json",
            ]
        )
        assert exit_code == 0
        assert '"cells": 2' in capsys.readouterr().out

    def test_unknown_label_is_a_runtime_failure(self, capsys, tmp_path):
        self._journal(tmp_path)
        main(["ingest", str(tmp_path)])
        assert main(["query", "cells", "fig6a", "--journal-dir", str(tmp_path)]) == 1
        assert "no ingested campaign" in _error_text(capsys)

    def test_mixed_fingerprints_fail_ingest_loudly(self, capsys, tmp_path):
        import json as _json

        self._journal(tmp_path)
        header = _json.loads(
            (tmp_path / "demo.jsonl").read_text(encoding="utf8").splitlines()[0]
        )
        stale = dict(header, fingerprint="f" * 64, shard=[1, 2])
        (tmp_path / "demo.shard-1-of-2.jsonl").write_text(
            _json.dumps(stale) + "\n", encoding="utf8"
        )
        assert main(["ingest", str(tmp_path)]) == 1
        assert "mixed plan fingerprints" in _error_text(capsys)


class TestServeValidation:
    def test_dry_run_prints_roster_and_quotas_binding_nothing(self, capsys, tmp_path):
        journal_dir = tmp_path / "journals"
        exit_code = main(
            [
                "serve",
                "--journal-dir", str(journal_dir),
                "--backend", "local:2",
                "--backend", "local:1",
                "--quota", "alice=2",
                "--default-quota", "4",
                "--dry-run",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "campaign service (dry run)" in out
        assert "local[slots=2], local#2[slots=1]" in out
        assert "total slots: 3" in out
        assert "alice" in out and "*" in out
        assert "dry run: nothing started" in out
        # Truly offline: no socket bound, no journal store touched.
        assert not journal_dir.exists()

    def test_dry_run_default_socket_under_journal_dir(self, capsys, tmp_path):
        assert main(["serve", "--journal-dir", str(tmp_path), "--dry-run"]) == 0
        assert f"socket: {tmp_path / 'service.sock'}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--quota", "alice"], "--quota must be TENANT=N"),
            (["--quota", "=3"], "--quota must be TENANT=N"),
            (["--quota", "alice=lots"], "N must be an integer"),
            (["--quota", "alice=0"], "--quota caps must be >= 1"),
            (["--default-quota", "0"], "--default-quota must be >= 1"),
            (["--max-retries", "-1"], "--max-retries must be >= 0"),
            (["--poll-interval", "0"], "--poll-interval must be > 0"),
            (["--stall-timeout", "0"], "--stall-timeout must be > 0"),
            (["--inject-kill-shard", "0"], "--inject-kill-shard must be >= 1"),
            (["--backend", "warp:1"], "invalid --backend"),
        ],
    )
    def test_bad_serve_arguments_rejected(self, capsys, tmp_path, extra, message):
        with pytest.raises(SystemExit):
            main(["serve", "--journal-dir", str(tmp_path), "--dry-run"] + extra)
        assert message in _error_text(capsys)


class TestClientSocketResolution:
    @pytest.mark.parametrize("command", [["status"], ["tail", "x"], ["cancel", "x"], ["submit", "fig6a"]])
    def test_client_commands_need_a_socket_or_journal_dir(self, capsys, command):
        with pytest.raises(SystemExit):
            main(command)
        assert "give --socket PATH or --journal-dir DIR" in _error_text(capsys)

    def test_journal_dir_shorthand_resolves_and_unreachable_daemon_fails_cleanly(
        self, capsys, tmp_path
    ):
        assert main(["status", "--journal-dir", str(tmp_path)]) == 1
        err = _error_text(capsys)
        assert "[status] FAILED" in err
        assert str(tmp_path / "service.sock") in err

    def test_unreachable_socket_is_an_error_not_a_crash(self, capsys, tmp_path):
        assert main(["cancel", "ghost", "--socket", str(tmp_path / "nope.sock")]) == 1
        assert "[cancel] FAILED" in _error_text(capsys)
