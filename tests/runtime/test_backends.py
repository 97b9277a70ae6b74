"""Tests for the pluggable execution-backend layer.

Three tiers, so a cluster is never needed:

* pure parsing/argv tests (``BackendSpec``, :func:`shard_argv`, the shell
  renderer the cluster templates share);
* :class:`LocalProcessBackend` / :class:`SSHBackend` against real local
  subprocesses (the ssh binary is a shim that strips the host and runs the
  command locally);
* :class:`SlurmBackend` against both a scripted command runner (pure unit:
  every sbatch/squeue/sacct/scancel call is faked in-process) and the real
  ``tools/fake_slurm`` shim, which runs jobs as detached local process
  groups — the same shim CI's ``backend-identity`` job drives through the
  CLI.
"""

import asyncio
import os
import stat
import sys
import textwrap
from pathlib import Path

import pytest

from repro.runtime.backends import (
    BackendError,
    BackendSpec,
    LocalProcessBackend,
    SSHBackend,
    SlurmBackend,
    build_backend,
    build_backends,
    render_k8s_manifest,
    render_shell_command,
    render_slurm_script,
    run_command,
    shard_argv,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
FAKE_SLURM = REPO_ROOT / "tools" / "fake_slurm"


def _run(coro):
    return asyncio.run(coro)


class TestShardArgv:
    def test_canonical_command(self):
        argv = shard_argv(
            "fig6a", "2/4", "/shared/journals",
            shard_args=("--scale", "paper"), resume=True,
        )
        assert argv == [
            "repro-campaign", "fig6a", "--shard", "2/4",
            "--journal-dir", "/shared/journals", "--scale", "paper", "--resume",
        ]

    def test_program_override_is_how_the_orchestrator_launches(self):
        argv = shard_argv(
            "fig6a", "1/2", "/j", program=(sys.executable, "-m", "repro.runtime.cli")
        )
        assert argv[:3] == [sys.executable, "-m", "repro.runtime.cli"]
        assert "--resume" not in argv

    def test_shell_renderer_preserves_scheduler_variables(self):
        rendered = render_shell_command(
            ["repro-campaign", "--shard", "${SLURM_ARRAY_TASK_ID}/8", "two words"]
        )
        assert '--shard "${SLURM_ARRAY_TASK_ID}/8"' in rendered
        assert "'two words'" in rendered


class TestTemplatesShareTheArgvSource:
    def test_slurm_template_renders_the_canonical_shard_command(self):
        script = render_slurm_script(
            "fig6a", 16, journal_dir="/shared/journals",
            workers_per_shard=4, shard_args=("--scale", "paper"),
        )
        expected = render_shell_command(
            shard_argv(
                "fig6a", "${SLURM_ARRAY_TASK_ID}/16", "/shared/journals",
                shard_args=("--workers", "4", "--scale", "paper"), resume=True,
            )
        )
        assert expected in script

    def test_k8s_template_renders_the_canonical_shard_command(self):
        manifest = render_k8s_manifest(
            "fig6a", 8, journal_dir="/shared/journals", workers_per_shard=2
        )
        expected = render_shell_command(
            shard_argv(
                "fig6a", "$((JOB_COMPLETION_INDEX + 1))/8", "/shared/journals",
                shard_args=("--workers", "2"), resume=True,
            )
        )
        assert expected in manifest


class TestBackendSpecParsing:
    def test_bare_name(self):
        spec = BackendSpec.parse("local")
        assert (spec.kind, spec.slots, spec.options) == ("local", None, {})

    def test_slots_and_options(self):
        spec = BackendSpec.parse("slurm:8,bin_dir=/opt/slurm/bin,poll=0.5")
        assert spec.kind == "slurm"
        assert spec.slots == 8
        assert spec.options == {"bin_dir": "/opt/slurm/bin", "poll": "0.5"}

    @pytest.mark.parametrize(
        ("text", "match"),
        [
            ("teleport", "unknown backend"),
            ("local:zero", "slots must be an integer"),
            ("local:0", "slots must be >= 1"),
            ("local:2,hostnode1", "not KEY=VALUE"),
            ("ssh:2", "requires a host"),
            ("local:1,shape=round", "does not accept option"),
            ("slurm:1,poll=soon", "poll must be a number"),
        ],
    )
    def test_invalid_specs_name_the_problem(self, text, match):
        with pytest.raises(BackendError, match=match):
            build_backend(text)

    def test_build_backends_disambiguates_duplicate_names(self):
        backends = build_backends(["local:1", "local:1", "ssh:1,host=n1"])
        assert [backend.name for backend in backends] == ["local", "local#2", "ssh:n1"]

    def test_explicit_names_survive(self):
        backend = build_backend("local:4,name=big-box")
        assert backend.name == "big-box"
        assert backend.slots == 4
        assert backend.describe() == "big-box[slots=4]"

    def test_unbounded_local_describe(self):
        assert build_backend("local").describe() == "local[slots=unbounded]"


class TestLocalProcessBackend:
    def test_wait_returncode_and_stderr(self):
        async def scenario():
            backend = LocalProcessBackend()
            launch = await backend.launch(
                [sys.executable, "-c", "import sys; sys.stderr.write('boom'); sys.exit(3)"]
            )
            returncode = await launch.wait()
            stderr = await launch.stderr()
            await launch.close()
            return returncode, stderr, launch.finished

        returncode, stderr, finished = _run(scenario())
        assert returncode == 3
        assert "boom" in stderr
        assert finished

    def test_kill_terminates_the_process(self):
        async def scenario():
            backend = LocalProcessBackend()
            launch = await backend.launch(
                [sys.executable, "-c", "import time; time.sleep(60)"]
            )
            assert not launch.finished
            launch.kill()
            returncode = await launch.wait()
            await launch.close()
            return returncode

        assert _run(scenario()) != 0

    def test_kill_takes_down_the_whole_process_group(self, tmp_path):
        """Regression: a shard running a ``--workers N`` pool must lose its
        worker processes on kill too.  Fork-inherited stderr pipes otherwise
        keep the orchestrator's stderr drain from ever seeing EOF (it hung
        forever) and leak orphaned workers."""
        ready = tmp_path / "grandchild.ready"
        script = (
            "import subprocess, sys, time\n"
            "child = subprocess.Popen(['sleep', '60'], stderr=sys.stderr)\n"
            f"open({str(ready)!r}, 'w').write(str(child.pid))\n"
            "time.sleep(60)\n"
        )

        async def scenario():
            backend = LocalProcessBackend()
            launch = await backend.launch([sys.executable, "-c", script])
            for _ in range(200):
                if ready.exists():
                    break
                await asyncio.sleep(0.05)
            assert ready.exists(), "grandchild never started"
            launch.kill()
            # Both awaits hang forever if the grandchild survives holding the
            # stderr pipe open — the timeout is the assertion.
            returncode = await asyncio.wait_for(launch.wait(), timeout=10)
            await asyncio.wait_for(launch.stderr(), timeout=10)
            await launch.close()
            return returncode

        assert _run(scenario()) != 0


def _transport(process):
    """The asyncio transport behind ``process`` (``Process`` keeps it private)."""
    return process._transport


class TestSubprocessTransportClosure:
    """Every subprocess transport is closed on every path, cancellations
    included: one still open when its event loop closes raises ``RuntimeError:
    Event loop is closed`` from its finalizer, long after the test that
    spawned it."""

    def test_cancelled_close_still_closes_the_transport(self):
        async def scenario():
            launch = await LocalProcessBackend().launch(
                [sys.executable, "-c", "import time; time.sleep(30)"]
            )
            launch.kill()
            closing = asyncio.ensure_future(launch.close())
            await asyncio.sleep(0)
            closing.cancel()
            await asyncio.gather(closing, return_exceptions=True)
            closed = _transport(launch._process).is_closing()
            # Let the loop record the exit before it closes.
            await asyncio.wait_for(launch.wait(), timeout=10)
            return closed

        assert _run(scenario())

    def test_cancelled_stderr_read_keeps_draining(self):
        script = "import sys, time; time.sleep(0.2); sys.stderr.write('late line')"

        async def scenario():
            launch = await LocalProcessBackend().launch([sys.executable, "-c", script])
            reading = asyncio.ensure_future(launch.stderr())
            await asyncio.sleep(0)
            reading.cancel()
            await asyncio.gather(reading, return_exceptions=True)
            await launch.wait()
            text = await launch.stderr()
            await launch.close()
            return text, _transport(launch._process).is_closing()

        assert _run(scenario()) == ("late line", True)

    def test_cancelled_command_is_killed_and_closed(self, monkeypatch):
        processes = []
        spawn = asyncio.create_subprocess_exec

        async def recording_spawn(*args, **kwargs):
            processes.append(await spawn(*args, **kwargs))
            return processes[-1]

        monkeypatch.setattr(asyncio, "create_subprocess_exec", recording_spawn)

        async def scenario():
            command = asyncio.ensure_future(
                run_command([sys.executable, "-c", "import time; time.sleep(30)"])
            )
            while not processes:
                await asyncio.sleep(0.01)
            command.cancel()
            await asyncio.gather(command, return_exceptions=True)
            closed = _transport(processes[0]).is_closing()
            # The command was killed: its exit arrives well before its sleep ends.
            return closed, await asyncio.wait_for(processes[0].wait(), timeout=10)

        assert _run(scenario()) == (True, -9)


class TestSSHBackend:
    def test_wrap_command_quotes_for_the_remote_shell(self):
        backend = SSHBackend("node7")
        wrapped = backend.wrap_command(["repro-campaign", "fig6a", "--shard", "1/2"])
        assert wrapped[0] == "ssh"
        assert "node7" in wrapped
        assert wrapped[-1] == "repro-campaign fig6a --shard 1/2"
        assert wrapped[wrapped.index("node7") + 1] == "--"

    def test_runs_through_a_fake_ssh_binary(self, tmp_path):
        """End to end with an ssh shim that drops the host and runs locally —
        proving the wrapped argv is a valid remote command line."""
        fake_ssh = tmp_path / "fake-ssh"
        fake_ssh.write_text(
            textwrap.dedent(
                """\
                #!/usr/bin/env python3
                import subprocess, sys
                args = sys.argv[1:]
                command = " ".join(args[args.index("--") + 1:])
                sys.exit(subprocess.call(["sh", "-c", command]))
                """
            ),
            encoding="utf8",
        )
        fake_ssh.chmod(fake_ssh.stat().st_mode | stat.S_IXUSR)
        marker = tmp_path / "ran.marker"

        async def scenario():
            backend = SSHBackend("ignored-host", ssh_command=str(fake_ssh))
            launch = await backend.launch(["touch", str(marker)])
            returncode = await launch.wait()
            await launch.close()
            return returncode

        assert _run(scenario()) == 0
        assert marker.exists()

    def test_from_spec(self):
        backend = build_backend("ssh:3,host=node9,ssh=ssh -p 2222")
        assert isinstance(backend, SSHBackend)
        assert backend.slots == 3
        assert backend.wrap_command(["true"])[:3] == ["ssh", "-p", "2222"]

    def test_shard_program_names_the_remote_interpreter(self):
        """The orchestrator's local sys.executable path does not exist on the
        remote host; the ssh backend substitutes a remote-resolvable program."""
        assert SSHBackend("node7").shard_program() == ["python3", "-m", "repro.runtime.cli"]
        custom = build_backend("ssh:1,host=node7,python=/opt/py/bin/python")
        assert custom.shard_program()[0] == "/opt/py/bin/python"
        # Local backends keep the orchestrator's own interpreter.
        assert LocalProcessBackend().shard_program() is None


def _fake_ssh(tmp_path, body: str) -> Path:
    """Write an executable stand-in for the ssh client."""
    script = tmp_path / "fake-ssh"
    script.write_text("#!/bin/sh\n" + body, encoding="utf8")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return script


class TestSSHPreflight:
    def test_dead_host_fails_at_prepare_time(self, tmp_path):
        """A host ssh cannot reach must fail the campaign at startup, naming
        the host and ssh's own stderr — not on the first shard attempt."""
        fake = _fake_ssh(tmp_path, "echo 'Connection refused' >&2\nexit 255\n")
        backend = SSHBackend("deadnode", ssh_command=str(fake))
        with pytest.raises(BackendError) as excinfo:
            backend.prepare(tmp_path)
        message = str(excinfo.value)
        assert "deadnode" in message
        assert "Connection refused" in message
        assert "preflight=off" in message

    def test_reachable_host_passes(self, tmp_path):
        fake = _fake_ssh(tmp_path, "exit 0\n")
        SSHBackend("node7", ssh_command=str(fake)).prepare(tmp_path)

    def test_preflight_runs_the_wrapped_true_command(self, tmp_path):
        """The preflight goes through wrap_command, so it exercises the same
        ssh options (BatchMode) and host the real launches will use."""
        log = tmp_path / "argv.log"
        fake = _fake_ssh(tmp_path, f'echo "$@" > {log}\nexit 0\n')
        SSHBackend("node7", ssh_command=str(fake)).prepare(tmp_path)
        logged = log.read_text(encoding="utf8")
        assert "BatchMode=yes" in logged
        assert "node7" in logged
        assert "true" in logged

    def test_preflight_off_skips_the_connection_test(self, tmp_path):
        backend = build_backend("ssh:1,host=deadnode,preflight=off,ssh=/nonexistent-ssh")
        backend.prepare(tmp_path)  # would raise if the preflight ran

    def test_missing_ssh_binary_is_a_backend_error(self, tmp_path):
        backend = SSHBackend("node7", ssh_command=str(tmp_path / "no-such-ssh"))
        with pytest.raises(BackendError, match="cannot run"):
            backend.prepare(tmp_path)

    def test_bad_preflight_value_rejected(self):
        with pytest.raises(BackendError, match="preflight must be 'on' or 'off'"):
            build_backend("ssh:1,host=node7,preflight=maybe")


class TestWorkersOverride:
    def test_workers_option_parses_on_every_kind(self):
        assert build_backend("local:2,workers=8").workers == 8
        assert build_backend("ssh:1,host=node7,workers=4").workers == 4
        assert build_backend("slurm:16,workers=32").workers == 32

    def test_workers_defaults_to_none(self):
        """No override means the campaign-wide --workers-per-shard applies —
        and describe() keeps its historical spelling, which CI's
        backend-identity job asserts byte-for-byte."""
        backend = build_backend("local:2")
        assert backend.workers is None
        assert backend.describe() == "local[slots=2]"

    def test_describe_shows_the_override(self):
        assert build_backend("local:2,workers=8").describe() == "local[slots=2,workers=8]"

    @pytest.mark.parametrize("text", ["local:1,workers=three", "local:1,workers=0"])
    def test_invalid_workers_rejected(self, text):
        with pytest.raises(BackendError, match="workers must be"):
            build_backend(text)


class _ScriptedRunner:
    """A scripted SlurmBackend command runner: records calls, replays answers."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    async def __call__(self, argv, *, env=None):
        self.calls.append(list(argv))
        tool = Path(argv[0]).name
        for index, (expected_tool, response) in enumerate(self.responses):
            if expected_tool == tool:
                self.responses.pop(index)
                return response
        return (0, "", "")


class TestSlurmBackendScripted:
    def _backend(self, runner, tmp_path, **kwargs):
        kwargs.setdefault("poll_interval", 0.01)
        return SlurmBackend(work_dir=tmp_path / "slurm", command_runner=runner, **kwargs)

    def test_submit_poll_reap_completed(self, tmp_path):
        runner = _ScriptedRunner(
            [
                ("sbatch", (0, "4242\n", "")),
                ("squeue", (0, "4242 RUNNING\n", "")),
                ("squeue", (0, "", "")),
                ("sacct", (0, "COMPLETED|0:0\n", "")),
            ]
        )
        backend = self._backend(runner, tmp_path)

        async def scenario():
            launch = await backend.launch(["repro-campaign", "fig6a", "--shard", "1/2"])
            return launch.job_id, await launch.wait()

        job_id, returncode = _run(scenario())
        assert job_id == "4242"
        assert returncode == 0
        # The batch script was written and handed to sbatch.
        sbatch_call = runner.calls[0]
        script = Path(sbatch_call[-1])
        assert script.exists()
        assert "repro-campaign fig6a --shard 1/2" in script.read_text()
        assert "--parsable" in sbatch_call

    def test_failed_job_maps_exit_code(self, tmp_path):
        runner = _ScriptedRunner(
            [
                ("sbatch", (0, "7\n", "")),
                ("squeue", (0, "", "")),
                ("sacct", (0, "FAILED|3:0\n", "")),
            ]
        )
        backend = self._backend(runner, tmp_path)

        async def scenario():
            launch = await backend.launch(["false"])
            return await launch.wait()

        assert _run(scenario()) == 3

    def test_kill_issues_scancel_and_maps_cancelled(self, tmp_path):
        runner = _ScriptedRunner(
            [
                ("sbatch", (0, "9\n", "")),
                ("scancel", (0, "", "")),
                ("squeue", (0, "", "")),
                ("sacct", (0, "CANCELLED by 0|0:9\n", "")),
            ]
        )
        backend = self._backend(runner, tmp_path)

        async def scenario():
            launch = await backend.launch(["sleep", "60"])
            launch.kill()
            return await launch.wait()

        assert _run(scenario()) == 137
        assert any(Path(call[0]).name == "scancel" for call in runner.calls)

    def test_nonterminal_sacct_state_keeps_polling(self, tmp_path):
        """Regression: a job transiently missing from squeue (slurmctld
        hiccup, accounting lag) while sacct still says RUNNING must NOT be
        reaped as failed — that would double-launch the shard."""
        runner = _ScriptedRunner(
            [
                ("sbatch", (0, "21\n", "")),
                ("squeue", (0, "", "")),           # transient: job not listed
                ("sacct", (0, "RUNNING|0:0\n", "")),  # ...but alive per accounting
                ("squeue", (0, "", "")),
                ("sacct", (0, "COMPLETED|0:0\n", "")),
            ]
        )
        backend = self._backend(runner, tmp_path)

        async def scenario():
            launch = await backend.launch(["true"])
            return await launch.wait()

        assert _run(scenario()) == 0
        sacct_calls = [c for c in runner.calls if Path(c[0]).name == "sacct"]
        assert len(sacct_calls) == 2  # the RUNNING answer forced a re-poll

    def test_failed_scancel_is_retried(self, tmp_path):
        """Regression: a failed scancel (busy slurmctld) must not be treated
        as done — the kill retries until scancel succeeds."""
        runner = _ScriptedRunner(
            [
                ("sbatch", (0, "22\n", "")),
                ("scancel", (1, "", "slurm_kill_job: error")),  # first cancel fails
                ("squeue", (0, "22 RUNNING\n", "")),
                ("scancel", (0, "", "")),                        # retried, succeeds
                ("squeue", (0, "", "")),
                ("sacct", (0, "CANCELLED by 0|0:9\n", "")),
            ]
        )
        backend = self._backend(runner, tmp_path)

        async def scenario():
            launch = await backend.launch(["sleep", "60"])
            launch.kill()
            return await launch.wait()

        assert _run(scenario()) == 137
        scancel_calls = [c for c in runner.calls if Path(c[0]).name == "scancel"]
        assert len(scancel_calls) == 2

    def test_sbatch_failure_raises_backend_error(self, tmp_path):
        runner = _ScriptedRunner([("sbatch", (1, "", "sbatch: error: no partition"))])
        backend = self._backend(runner, tmp_path)
        with pytest.raises(BackendError, match="no partition"):
            _run(backend.launch(["true"]))

    def test_signal_exit_codes_map_to_128_plus_signal(self, tmp_path):
        runner = _ScriptedRunner(
            [
                ("sbatch", (0, "11\n", "")),
                ("squeue", (0, "", "")),
                ("sacct", (0, "FAILED|0:9\n", "")),
            ]
        )
        backend = self._backend(runner, tmp_path)

        async def scenario():
            launch = await backend.launch(["true"])
            return await launch.wait()

        assert _run(scenario()) == 137


@pytest.fixture()
def fake_slurm_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FAKE_SLURM_STATE", str(tmp_path / "slurm-state"))
    return dict(os.environ)


class TestSlurmBackendAgainstFakeShim:
    """The same submit/poll/reap/cancel cycle against tools/fake_slurm."""

    def _backend(self, tmp_path):
        return SlurmBackend(
            bin_dir=FAKE_SLURM, work_dir=tmp_path / "slurm-work", poll_interval=0.05
        )

    def test_completed_job(self, tmp_path, fake_slurm_env):
        backend = self._backend(tmp_path)
        marker = tmp_path / "job-ran.marker"

        async def scenario():
            launch = await backend.launch(["touch", str(marker)], env=fake_slurm_env)
            returncode = await launch.wait()
            await launch.close()
            return returncode

        assert _run(scenario()) == 0
        assert marker.exists()

    def test_failed_job_reports_exit_code_and_stderr(self, tmp_path, fake_slurm_env):
        backend = self._backend(tmp_path)

        async def scenario():
            launch = await backend.launch(
                [sys.executable, "-c", "import sys; sys.stderr.write('shard died'); sys.exit(5)"],
                env=fake_slurm_env,
            )
            returncode = await launch.wait()
            stderr = await launch.stderr()
            await launch.close()
            return returncode, stderr

        returncode, stderr = _run(scenario())
        assert returncode == 5
        assert "shard died" in stderr

    def test_cancelled_job_maps_to_killed(self, tmp_path, fake_slurm_env):
        backend = self._backend(tmp_path)

        async def scenario():
            launch = await backend.launch(["sleep", "60"], env=fake_slurm_env)
            await asyncio.sleep(0.2)  # let the job start
            launch.kill()
            returncode = await launch.wait()
            await launch.close()
            return returncode

        assert _run(scenario()) == 137


class TestSlurmArraySubmission:
    """``array=on``: concurrent launches collapse into one sbatch --array."""

    def test_from_spec_parses_array_option(self):
        backend = build_backend("slurm:4,array=on")
        assert isinstance(backend, SlurmBackend)
        assert backend.array is True
        assert build_backend("slurm").array is False
        with pytest.raises(BackendError, match="array"):
            build_backend("slurm,array=maybe")

    def test_one_sbatch_call_for_a_wave_of_launches(self, tmp_path):
        runner = _ScriptedRunner(
            [
                ("sbatch", (0, "99\n", "")),
                ("squeue", (0, "", "")),
                ("squeue", (0, "", "")),
                ("squeue", (0, "", "")),
                ("sacct", (0, "COMPLETED|0:0\n", "")),
                ("sacct", (0, "COMPLETED|0:0\n", "")),
                ("sacct", (0, "FAILED|2:0\n", "")),
            ]
        )
        backend = SlurmBackend(
            work_dir=tmp_path / "slurm",
            command_runner=runner,
            poll_interval=0.01,
            array=True,
            array_window=0.05,
        )

        async def scenario():
            launches = await asyncio.gather(
                *(backend.launch(["echo", f"shard-{i}"]) for i in range(3))
            )
            codes = await asyncio.gather(*(launch.wait() for launch in launches))
            return launches, codes

        launches, codes = _run(scenario())
        assert [launch.job_id for launch in launches] == ["99_0", "99_1", "99_2"]
        assert codes == [0, 0, 2]
        sbatch_calls = [call for call in runner.calls if Path(call[0]).name == "sbatch"]
        assert len(sbatch_calls) == 1
        assert "--array=0-2" in sbatch_calls[0]
        script = Path(sbatch_calls[0][-1]).read_text()
        assert 'case "$SLURM_ARRAY_TASK_ID" in' in script
        for i in range(3):
            assert f"echo shard-{i}" in script

    def test_single_launch_window_falls_back_to_plain_submit(self, tmp_path):
        runner = _ScriptedRunner(
            [
                ("sbatch", (0, "7\n", "")),
                ("squeue", (0, "", "")),
                ("sacct", (0, "COMPLETED|0:0\n", "")),
            ]
        )
        backend = SlurmBackend(
            work_dir=tmp_path / "slurm",
            command_runner=runner,
            poll_interval=0.01,
            array=True,
            array_window=0.01,
        )

        async def scenario():
            launch = await backend.launch(["echo", "solo"])
            return launch.job_id, await launch.wait()

        job_id, returncode = _run(scenario())
        assert job_id == "7"  # no array-task suffix
        assert returncode == 0
        sbatch_calls = [call for call in runner.calls if Path(call[0]).name == "sbatch"]
        assert not any("--array" in token for token in sbatch_calls[0])

    def test_sbatch_failure_fails_every_launch_in_the_window(self, tmp_path):
        runner = _ScriptedRunner([("sbatch", (1, "", "partition down"))])
        backend = SlurmBackend(
            work_dir=tmp_path / "slurm",
            command_runner=runner,
            poll_interval=0.01,
            array=True,
            array_window=0.01,
        )

        async def scenario():
            results = await asyncio.gather(
                *(backend.launch(["echo", str(i)]) for i in range(2)),
                return_exceptions=True,
            )
            return results

        results = _run(scenario())
        assert len(results) == 2
        assert all(isinstance(result, BackendError) for result in results)
        assert all("partition down" in str(result) for result in results)

    def test_array_cycle_against_the_fake_shim(self, tmp_path, fake_slurm_env):
        backend = SlurmBackend(
            bin_dir=FAKE_SLURM,
            work_dir=tmp_path / "slurm-work",
            poll_interval=0.05,
            array=True,
            array_window=0.1,
        )

        async def scenario():
            launches = await asyncio.gather(
                *(
                    backend.launch(
                        [
                            "bash",
                            "-c",
                            f"echo task $SLURM_ARRAY_TASK_ID >&2; exit {0 if i != 1 else 9}",
                        ],
                        env=fake_slurm_env,
                    )
                    for i in range(3)
                )
            )
            codes = await asyncio.gather(*(launch.wait() for launch in launches))
            stderrs = await asyncio.gather(*(launch.stderr() for launch in launches))
            await asyncio.gather(*(launch.close() for launch in launches))
            return launches, codes, stderrs

        launches, codes, stderrs = _run(scenario())
        base = launches[0].job_id.split("_")[0]
        assert [launch.job_id for launch in launches] == [f"{base}_{i}" for i in range(3)]
        assert codes == [0, 9, 0]
        # Each task saw its own SLURM_ARRAY_TASK_ID and its own stderr file.
        assert [err.strip() for err in stderrs] == ["task 0", "task 1", "task 2"]

    def test_cancelling_one_array_task_leaves_siblings_running(self, tmp_path, fake_slurm_env):
        backend = SlurmBackend(
            bin_dir=FAKE_SLURM,
            work_dir=tmp_path / "slurm-work",
            poll_interval=0.05,
            array=True,
            array_window=0.1,
        )
        marker = tmp_path / "sibling-finished.marker"

        async def scenario():
            slow = backend.launch(["sleep", "60"], env=fake_slurm_env)
            quick = backend.launch(
                ["bash", "-c", f"sleep 0.3 && touch {marker}"], env=fake_slurm_env
            )
            slow_launch, quick_launch = await asyncio.gather(slow, quick)
            await asyncio.sleep(0.2)  # let both tasks start
            slow_launch.kill()
            slow_code, quick_code = await asyncio.gather(
                slow_launch.wait(), quick_launch.wait()
            )
            await asyncio.gather(slow_launch.close(), quick_launch.close())
            return slow_code, quick_code

        slow_code, quick_code = _run(scenario())
        assert slow_code == 137
        assert quick_code == 0
        assert marker.exists()
