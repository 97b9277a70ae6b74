"""Pluggable execution backends: where a shard attempt actually runs.

PR 4's orchestrator hard-coded ``asyncio.create_subprocess_exec`` — every
shard attempt was a local subprocess.  This module promotes the launch seam
into a first-class abstraction so shards of one campaign can run on a mix of
executors:

* :class:`LocalProcessBackend` — a local subprocess (the PR 4 behaviour, and
  the default);
* :class:`SSHBackend` — the same argv executed on a remote host over
  ``ssh host -- ...`` (the host must see the shared journal store and have
  the package importable);
* :class:`SlurmBackend` — submit via ``sbatch``, poll via ``squeue``, reap
  the outcome via ``sacct``, cancel via ``scancel``.  Every Slurm command
  goes through an injectable *command runner*, so the backend is fully
  exercisable in tests against the fake-slurm shim in ``tools/fake_slurm/``
  (or scripted responses) — no cluster needed.

The contract is deliberately thin.  A backend turns an argv into a
:class:`ShardLaunch` handle with ``wait`` / ``kill`` / ``stderr``; *progress*
is never the backend's job — the orchestrator keeps tailing the shard journal
files, which only requires that every backend shares the journal filesystem.
That is what keeps the byte-identity invariant backend-mix-independent: the
journals, not the backends, are the wire protocol.

This module is also the single source of truth for shard argv construction:
:func:`shard_argv` builds the canonical ``--shard k/n`` command used by the
orchestrator's launches *and* by the ``--emit-slurm`` / ``--emit-k8s``
template renderers (:func:`render_slurm_script`, :func:`render_k8s_manifest`).

CLI spelling: ``--backend NAME[:SLOTS][,KEY=VALUE...]`` — e.g. ``local:4``,
``ssh:2,host=node7``, ``slurm:16,bin_dir=/opt/slurm/bin,workers=8`` — parsed
by :meth:`BackendSpec.parse` and instantiated by :func:`build_backend`.  The
``workers=M`` option (any kind) overrides the campaign-wide
``--workers-per-shard`` pool size for attempts that backend runs.
"""

from __future__ import annotations

import abc
import asyncio
import itertools
import os
import shlex
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple


class BackendError(RuntimeError):
    """A backend spec is invalid, or a backend could not launch or track a job."""


# --------------------------------------------------------------- shard argv
def shard_argv(
    experiment_id: str,
    shard: str,
    journal_dir,
    *,
    shard_args: Sequence[str] = (),
    resume: bool = False,
    program: Sequence[str] = ("repro-campaign",),
) -> List[str]:
    """The canonical argv for one ``--shard`` run.

    Single source of truth for shard command construction: the orchestrator
    launches exactly this argv (with ``program`` set to ``python -m
    repro.runtime.cli``), and the Slurm/Kubernetes template renderers render
    it (with ``shard`` left as a scheduler variable like
    ``${SLURM_ARRAY_TASK_ID}/16``).
    """
    argv = [
        *program,
        experiment_id,
        "--shard",
        str(shard),
        "--journal-dir",
        str(journal_dir),
        *[str(arg) for arg in shard_args],
    ]
    if resume:
        argv.append("--resume")
    return argv


def render_shell_command(argv: Sequence[str]) -> str:
    """Render an argv for a shell template, preserving ``$`` expansions.

    Tokens containing ``${`` or ``$((`` (scheduler variables like
    ``${SLURM_ARRAY_TASK_ID}/16``) are double-quoted so the shell still
    expands them; everything else is ``shlex``-quoted.
    """
    rendered = []
    for token in argv:
        if "${" in token or "$((" in token:
            rendered.append(f'"{token}"')
        else:
            rendered.append(shlex.quote(token))
    return " ".join(rendered)


# ------------------------------------------------------------------- handles
def _close_transport(process: asyncio.subprocess.Process) -> None:
    """Close ``process``'s transport now, killing the process if it still runs.

    asyncio closes a subprocess transport by itself only once it has seen the
    exit *and* EOF on every pipe; one still open when its event loop closes
    raises ``RuntimeError: Event loop is closed`` from its finalizer.  Closing
    an already-closed transport is a no-op.  ``Process`` keeps its transport
    private.
    """
    process._transport.close()


class ShardLaunch(abc.ABC):
    """One in-flight shard attempt, as the orchestrator sees it.

    The orchestrator awaits :meth:`wait` concurrently with its journal-tail
    loop, calls :meth:`kill` for stall/chaos terminations, and reads
    :meth:`stderr` after the attempt ends to name the failure.  ``finished``
    must be cheap and non-blocking — it guards the never-orphan cleanup path.
    """

    @property
    @abc.abstractmethod
    def finished(self) -> bool:
        """Whether the attempt has terminated (return code known)."""

    @abc.abstractmethod
    async def wait(self) -> Optional[int]:
        """Block until the attempt terminates; return its exit code."""

    @abc.abstractmethod
    def kill(self) -> None:
        """Request termination of the attempt (idempotent, non-blocking)."""

    @abc.abstractmethod
    async def stderr(self) -> str:
        """The attempt's captured stderr (meaningful once ``finished``)."""

    async def close(self) -> None:
        """Reap the attempt's resources; must never raise."""
        await asyncio.gather(self.wait(), return_exceptions=True)


class _ProcessLaunch(ShardLaunch):
    """A :class:`ShardLaunch` over one local ``asyncio`` subprocess.

    The subprocess is its own session leader (``start_new_session``), so
    :meth:`kill` takes down the **whole process group** — a shard running a
    ``--workers N`` pool must lose its workers too, or the fork-inherited
    stderr pipe never reaches EOF (orphaned workers would both leak and
    deadlock the orchestrator's stderr drain).
    """

    def __init__(self, process: asyncio.subprocess.Process) -> None:
        self._process = process
        # Drain stderr concurrently so a chatty shard can never fill the pipe
        # and deadlock against the orchestrator's poll loop.
        self._stderr_task = asyncio.ensure_future(process.stderr.read())

    @property
    def finished(self) -> bool:
        """Whether the subprocess has exited."""
        return self._process.returncode is not None

    async def wait(self) -> Optional[int]:
        """Wait for the subprocess to exit and return its code."""
        return await self._process.wait()

    def kill(self) -> None:
        """SIGKILL the subprocess's whole process group (workers included)."""
        if self._process.returncode is not None:
            return
        try:
            os.killpg(self._process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            try:
                self._process.kill()
            except ProcessLookupError:
                pass

    async def stderr(self) -> str:
        """The subprocess's full stderr, decoded.

        ``asyncio.wait`` never cancels what it waits for, so a cancelled
        caller leaves the drain reading to EOF for the next caller.
        """
        await asyncio.wait({self._stderr_task})
        task = self._stderr_task
        if task.cancelled() or task.exception() is not None:
            return ""
        return task.result().decode("utf8", errors="replace")

    async def close(self) -> None:
        """Reap the subprocess and its stderr pipe, then close its transport.

        A cancelled caller still closes the transport (see
        :func:`_close_transport`); nothing else is raised.
        """
        try:
            await self._process.wait()
            await asyncio.wait({self._stderr_task})
        finally:
            _close_transport(self._process)


# ------------------------------------------------------------------ backends
class ExecutionBackend(abc.ABC):
    """Something that can run a shard attempt given its argv.

    ``slots`` declares how many attempts the backend runs concurrently
    (``None`` = unbounded); the scheduler enforces it.  ``name`` labels the
    backend in reports, dry-run output, and failover decisions.  ``workers``
    (``--backend NAME:SLOTS,workers=M``) overrides the campaign-wide
    ``--workers-per-shard`` pool size for attempts this backend runs, so a
    big cluster node can use more pool workers than a laptop-class host.
    """

    #: Registry key / CLI spelling of the backend class (``--backend KIND``).
    kind = "backend"

    def __init__(
        self,
        *,
        slots: Optional[int] = None,
        name: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        if slots is not None and slots < 1:
            raise BackendError(f"backend slots must be >= 1, got {slots}")
        if workers is not None and workers < 1:
            raise BackendError(f"backend workers must be >= 1, got {workers}")
        self.slots = slots
        self.workers = workers
        self.name = name or self.kind

    @abc.abstractmethod
    async def launch(self, command: Sequence[str], *, env: Optional[dict] = None) -> ShardLaunch:
        """Start one shard attempt running ``command``; return its handle."""

    def prepare(self, journal_dir) -> None:
        """Hook run once before any launch; defaults backend scratch paths."""

    def shard_program(self) -> Optional[List[str]]:
        """Override of the shard command's program prefix, or ``None``.

        The orchestrator's default program is its own ``sys.executable -m
        repro.runtime.cli`` — a machine-local path.  Backends that execute on
        a *different* machine return the program that exists there instead
        (see :meth:`SSHBackend.shard_program`).
        """
        return None

    def describe(self) -> str:
        """Human-readable label: name, declared capacity, workers override."""
        capacity = "unbounded" if self.slots is None else str(self.slots)
        # The workers suffix appears only when the override is set, so the
        # default spelling (and everything keyed on it) stays unchanged.
        workers = f",workers={self.workers}" if self.workers is not None else ""
        return f"{self.name}[slots={capacity}{workers}]"

    @classmethod
    def from_spec(cls, spec: "BackendSpec") -> "ExecutionBackend":
        """Build an instance from a parsed CLI :class:`BackendSpec`."""
        raise NotImplementedError

    @staticmethod
    def _reject_unknown_options(spec: "BackendSpec", allowed: Sequence[str]) -> None:
        """Raise :class:`BackendError` naming any option key not in ``allowed``."""
        unknown = sorted(set(spec.options) - set(allowed))
        if unknown:
            raise BackendError(
                f"backend {spec.kind!r} does not accept option(s) {unknown}; "
                f"allowed: {sorted(allowed)}"
            )

    @staticmethod
    def _workers_from_spec(spec: "BackendSpec") -> Optional[int]:
        """The parsed ``workers=M`` option of a spec, or ``None`` if absent."""
        text = spec.options.get("workers")
        if text is None:
            return None
        try:
            return int(text)
        except ValueError:
            raise BackendError(f"backend workers must be an integer, got {text!r}")


class LocalProcessBackend(ExecutionBackend):
    """Run shard attempts as local subprocesses (the default backend)."""

    kind = "local"

    def wrap_command(self, command: Sequence[str]) -> List[str]:
        """The argv actually executed locally (identity for local runs)."""
        return list(command)

    async def launch(self, command: Sequence[str], *, env: Optional[dict] = None) -> ShardLaunch:
        """Spawn the shard argv as a local subprocess (own process group)."""
        process = await asyncio.create_subprocess_exec(
            *self.wrap_command(command),
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
            env=env,
            start_new_session=True,
        )
        return _ProcessLaunch(process)

    @classmethod
    def from_spec(cls, spec: "BackendSpec") -> "LocalProcessBackend":
        """``--backend local[:slots][,workers=M][,name=...]``."""
        cls._reject_unknown_options(spec, ("name", "workers"))
        return cls(
            slots=spec.slots,
            name=spec.options.get("name"),
            workers=cls._workers_from_spec(spec),
        )


class SSHBackend(LocalProcessBackend):
    """Run shard attempts on a remote host over ``ssh host -- ...``.

    The remote host must share the journal filesystem (journals are the only
    progress and result channel) and have the package importable by its own
    interpreter: the shard program runs as ``<python> -m repro.runtime.cli``
    where ``python`` (default ``python3``) names the *remote* interpreter —
    the orchestrator's local ``sys.executable`` path and ``PYTHONPATH`` do
    not exist on (and are not forwarded to) the remote side.  Killing an
    attempt kills the local ``ssh`` client; the remote command loses its
    connection and is terminated by sshd.

    :meth:`prepare` runs a cheap connection preflight (``ssh host -- true``)
    so a dead or misconfigured host fails the campaign at startup instead of
    on its first shard attempt; ``preflight=off`` skips it.
    """

    kind = "ssh"

    #: Seconds the startup preflight waits for ``ssh host -- true``.
    PREFLIGHT_TIMEOUT = 30.0

    def __init__(
        self,
        host: str,
        *,
        slots: Optional[int] = None,
        name: Optional[str] = None,
        workers: Optional[int] = None,
        ssh_command: str = "ssh",
        python: str = "python3",
        preflight: bool = True,
    ) -> None:
        if not host:
            raise BackendError("ssh backend requires a host (e.g. --backend ssh:2,host=node7)")
        super().__init__(slots=slots, name=name or f"ssh:{host}", workers=workers)
        self.host = host
        self.ssh_command = ssh_command
        self.python = python
        self.preflight = preflight

    def prepare(self, journal_dir) -> None:
        """Preflight the connection: a dead host must fail at startup.

        Runs ``<ssh> -o BatchMode=yes <host> -- true`` synchronously (shard
        attempts haven't launched yet, so blocking is fine) and raises
        :class:`BackendError` with the host and ssh's own stderr on any
        failure — unreachable host, rejected key, or a hung connection
        exceeding :data:`PREFLIGHT_TIMEOUT`.
        """
        if not self.preflight:
            return
        import subprocess

        argv = self.wrap_command(["true"])
        try:
            completed = subprocess.run(
                argv,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=self.PREFLIGHT_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            raise BackendError(
                f"backend {self.name}: connection preflight to {self.host!r} hung for "
                f"{self.PREFLIGHT_TIMEOUT:.0f}s (disable with preflight=off)"
            )
        except OSError as error:
            raise BackendError(
                f"backend {self.name}: cannot run {argv[0]!r} for the connection "
                f"preflight: {error}"
            )
        if completed.returncode != 0:
            detail = completed.stderr.decode("utf8", errors="replace").strip()
            raise BackendError(
                f"backend {self.name}: connection preflight to {self.host!r} failed "
                f"(exit {completed.returncode})"
                + (f": {detail}" if detail else "")
                + " — fix the host or disable with preflight=off"
            )

    def shard_program(self) -> List[str]:
        """The remote-side shard program: ``<python> -m repro.runtime.cli``."""
        return [*shlex.split(self.python), "-m", "repro.runtime.cli"]

    def wrap_command(self, command: Sequence[str]) -> List[str]:
        """The local ``ssh`` argv that executes ``command`` on the host."""
        remote = " ".join(shlex.quote(str(token)) for token in command)
        return [*shlex.split(self.ssh_command), "-o", "BatchMode=yes", self.host, "--", remote]

    @classmethod
    def from_spec(cls, spec: "BackendSpec") -> "SSHBackend":
        """``--backend ssh[:slots],host=NODE[,workers=M][,ssh=CMD][,python=BIN][,preflight=off]``."""
        cls._reject_unknown_options(
            spec, ("name", "host", "ssh", "python", "workers", "preflight")
        )
        preflight_text = spec.options.get("preflight", "on").lower()
        if preflight_text not in ("on", "off"):
            raise BackendError(
                f"ssh preflight must be 'on' or 'off', got {spec.options['preflight']!r}"
            )
        return cls(
            spec.options.get("host", ""),
            slots=spec.slots,
            name=spec.options.get("name"),
            workers=cls._workers_from_spec(spec),
            ssh_command=spec.options.get("ssh", "ssh"),
            python=spec.options.get("python", "python3"),
            preflight=preflight_text == "on",
        )


#: ``async (argv, env) -> (returncode, stdout, stderr)`` — how SlurmBackend
#: executes ``sbatch``/``squeue``/``sacct``/``scancel``.  Injectable for tests.
CommandRunner = Callable[..., Awaitable[Tuple[int, str, str]]]


async def run_command(argv: Sequence[str], *, env: Optional[dict] = None) -> Tuple[int, str, str]:
    """Default :data:`CommandRunner`: run ``argv`` locally and capture output."""
    process = await asyncio.create_subprocess_exec(
        *argv,
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.PIPE,
        env=env,
    )
    try:
        stdout, stderr = await process.communicate()
    finally:
        # A command cancelled mid-run is killed, not left to outlive the loop.
        _close_transport(process)
    return (
        process.returncode,
        stdout.decode("utf8", errors="replace"),
        stderr.decode("utf8", errors="replace"),
    )


#: sacct states that mean "the job has not finished" — they keep the wait
#: loop polling instead of being mistaken for a failed terminal state (a job
#: can vanish from squeue transiently while sacct still says RUNNING).
_SLURM_NONTERMINAL_STATES = (
    "RUNNING",
    "PENDING",
    "REQUEUED",
    "RESIZING",
    "SUSPENDED",
    "COMPLETING",
)


class SlurmLaunch(ShardLaunch):
    """A shard attempt living as one Slurm job.

    ``wait`` polls ``squeue`` while the job is queued/running, and only
    returns once ``sacct`` reports a genuinely *terminal* state — a job
    missing from ``squeue`` (slurmctld hiccup, accounting lag) is not assumed
    dead while ``sacct`` still says RUNNING/PENDING, so one shard can never
    be double-launched.  ``kill`` requests a ``scancel``, which the poll loop
    issues (so ``kill`` stays non-blocking) and retries until it succeeds.
    """

    def __init__(self, backend: "SlurmBackend", job_id: str, stderr_path: Path, env=None) -> None:
        self._backend = backend
        self.job_id = job_id
        self._stderr_path = stderr_path
        self._env = env
        self._returncode: Optional[int] = None
        self._kill_requested = False
        self._cancelled = False

    @property
    def finished(self) -> bool:
        """Whether the job has reached a terminal state."""
        return self._returncode is not None

    def kill(self) -> None:
        """Request ``scancel`` of the job (issued by the poll loop)."""
        self._kill_requested = True

    async def wait(self) -> Optional[int]:
        """Poll the job until a terminal state; return its mapped exit code."""
        if self._returncode is not None:
            return self._returncode
        backend = self._backend
        missing_record = 0
        while True:
            if self._kill_requested and not self._cancelled:
                returncode, _, _ = await backend._run(
                    [backend.tool("scancel"), self.job_id], env=self._env
                )
                if returncode == 0:
                    self._cancelled = True  # a failed scancel retries next poll
            returncode, stdout, _ = await backend._run(
                [backend.tool("squeue"), "-h", "-j", self.job_id], env=self._env
            )
            if returncode == 0 and stdout.strip():
                await asyncio.sleep(backend.poll_interval)
                continue
            # The job left the queue (or squeue failed): consult accounting.
            line = await self._sacct_line()
            if line is None:
                missing_record += 1
                if missing_record >= 10:
                    # No accounting record after repeated tries: treat a
                    # cancelled job as killed, anything else as lost.
                    self._returncode = 137 if self._cancelled else 1
                    return self._returncode
                await asyncio.sleep(backend.poll_interval)
                continue
            state, _, exit_code = line.partition("|")
            state = state.strip().upper()
            if any(state.startswith(prefix) for prefix in _SLURM_NONTERMINAL_STATES):
                # squeue glitched but the job is alive per accounting: the
                # attempt is NOT over — keep polling.
                missing_record = 0
                await asyncio.sleep(backend.poll_interval)
                continue
            self._returncode = self._map_terminal(state, exit_code)
            return self._returncode

    async def _sacct_line(self) -> Optional[str]:
        """The job's first ``State|ExitCode`` accounting line, if any yet."""
        backend = self._backend
        returncode, stdout, _ = await backend._run(
            [backend.tool("sacct"), "-n", "-P", "-j", self.job_id, "-o", "State,ExitCode"],
            env=self._env,
        )
        if returncode != 0:
            return None
        return next((line for line in stdout.strip().splitlines() if line.strip()), None)

    @staticmethod
    def _map_terminal(state: str, exit_code: str) -> int:
        """Map a terminal sacct state + ``N:S`` exit code to a process code."""
        if state.startswith("CANCELLED"):
            return 137
        code, _, signal_text = exit_code.strip().partition(":")
        try:
            code_value, signal_value = int(code or 0), int(signal_text or 0)
        except ValueError:
            code_value, signal_value = 1, 0
        if signal_value:
            return 128 + signal_value
        if state.startswith("COMPLETED"):
            return code_value
        return code_value or 1

    async def stderr(self) -> str:
        """The job's stderr file contents (``sbatch --error`` target).

        The read runs on an executor thread: a shard's stderr log lives on
        the shared (often network) filesystem and can be arbitrarily large,
        and a synchronous read here would stall every other shard's poll
        loop (REP005 — the PR 5 deadlock class).
        """

        def _read() -> str:
            try:
                return self._stderr_path.read_text(encoding="utf8", errors="replace")
            except OSError:
                return ""

        return await asyncio.get_running_loop().run_in_executor(None, _read)

    async def close(self) -> None:
        """Ensure the job is not orphaned: cancel if unfinished, then reap."""
        if not self.finished:
            self.kill()
        await asyncio.gather(self.wait(), return_exceptions=True)


class SlurmBackend(ExecutionBackend):
    """Run shard attempts as Slurm jobs (``sbatch``/``squeue``/``sacct``).

    ``bin_dir`` prefixes the four Slurm tools — pointing it at
    ``tools/fake_slurm/`` runs the whole submit/poll/reap/cancel cycle
    against local processes, which is how tests and CI exercise this backend
    without a cluster.  ``command_runner`` replaces subprocess execution
    entirely for scripted unit tests.

    ``array=on`` batches concurrent launches into single ``sbatch --array``
    submissions: launches arriving within one :attr:`array_window` flush as
    one array job whose script dispatches on ``$SLURM_ARRAY_TASK_ID``, and
    each task is tracked as its own ``<base>_<k>`` job.  This collapses a
    64-shard wave from 64 scheduler round-trips to one, without changing the
    per-attempt wait/kill/stderr contract.
    """

    kind = "slurm"

    #: Seconds a launch waits for siblings before an ``array=on`` submission.
    ARRAY_WINDOW = 0.05

    def __init__(
        self,
        *,
        slots: Optional[int] = None,
        name: Optional[str] = None,
        workers: Optional[int] = None,
        bin_dir=None,
        work_dir=None,
        poll_interval: float = 2.0,
        sbatch_args: Sequence[str] = (),
        command_runner: Optional[CommandRunner] = None,
        array: bool = False,
        array_window: Optional[float] = None,
    ) -> None:
        super().__init__(slots=slots, name=name, workers=workers)
        if poll_interval <= 0:
            raise BackendError(f"slurm poll interval must be > 0, got {poll_interval}")
        self.bin_dir = Path(bin_dir) if bin_dir is not None else None
        self.work_dir = Path(work_dir) if work_dir is not None else None
        self.poll_interval = float(poll_interval)
        self.sbatch_args = list(sbatch_args)
        self.array = bool(array)
        self.array_window = self.ARRAY_WINDOW if array_window is None else float(array_window)
        if self.array_window < 0:
            raise BackendError(f"slurm array_window must be >= 0, got {array_window}")
        self._run: CommandRunner = command_runner or run_command
        self._counter = itertools.count(1)
        # Pending ``array=on`` launches: (command, env, future) triples waiting
        # for the current launch window to close and flush as one submission.
        self._pending: List[Tuple[List[str], Optional[dict], "asyncio.Future"]] = []
        self._flush_task: Optional["asyncio.Task"] = None

    def tool(self, tool: str) -> str:
        """The path of one Slurm tool, honouring ``bin_dir``."""
        return str(self.bin_dir / tool) if self.bin_dir is not None else tool

    def prepare(self, journal_dir) -> None:
        """Default the batch-script scratch dir into the shared journal store."""
        if self.work_dir is None:
            self.work_dir = Path(journal_dir) / "slurm"

    async def launch(self, command: Sequence[str], *, env: Optional[dict] = None) -> ShardLaunch:
        """Submit ``command`` as a Slurm job and return its handle.

        With ``array=on``, concurrent launches are held for a short window
        (:attr:`array_window` seconds) and flushed together as **one**
        ``sbatch --array`` submission — one scheduler round-trip for a whole
        wave of shards instead of one per shard.  A window that closes with a
        single launch falls back to a plain submission, so the option is
        always safe to enable.
        """
        if not self.array:
            return await self._submit_single(command, env)
        future: "asyncio.Future" = asyncio.get_event_loop().create_future()
        self._pending.append((list(command), env, future))
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = asyncio.ensure_future(self._flush_after_window())
        return await future

    async def _flush_after_window(self) -> None:
        """Close the launch window and submit everything it collected."""
        await asyncio.sleep(self.array_window)
        pending, self._pending = self._pending, []
        # One submission per distinct environment: an array's tasks share env.
        groups: List[Tuple[Optional[dict], List[Tuple[List[str], "asyncio.Future"]]]] = []
        for command, env, future in pending:
            for group_env, members in groups:
                if group_env == env:
                    members.append((command, future))
                    break
            else:
                groups.append((env, [(command, future)]))
        for env, members in groups:
            try:
                if len(members) == 1:
                    launches = [await self._submit_single(members[0][0], env)]
                else:
                    launches = await self._submit_array([cmd for cmd, _ in members], env)
            except Exception as error:  # surface the failure to every waiter
                for _, future in members:
                    if not future.done():
                        future.set_exception(BackendError(str(error)))
                continue
            for (_, future), launch in zip(members, launches):
                if future.done():
                    # The waiter vanished (cancelled attempt): never orphan
                    # the already-submitted task.
                    asyncio.ensure_future(launch.close())
                else:
                    future.set_result(launch)

    def _scratch_paths(self, suffix: str = "") -> Tuple[Path, Path, Path, Path]:
        """Allocate (work_dir, script, stdout, stderr) paths for one submission."""
        work_dir = self.work_dir if self.work_dir is not None else Path(".") / "slurm"
        work_dir.mkdir(parents=True, exist_ok=True)
        tag = f"{self.name.replace('/', '_')}-{next(self._counter)}{suffix}"
        return (
            work_dir,
            work_dir / f"shard-{tag}.sh",
            work_dir / f"shard-{tag}.out",
            work_dir / f"shard-{tag}.err",
        )

    async def _sbatch(self, args: Sequence[str], env: Optional[dict]) -> str:
        """Run ``sbatch --parsable`` with ``args`` and return the job id."""
        returncode, stdout, stderr = await self._run(
            [self.tool("sbatch"), "--parsable", *args], env=env
        )
        if returncode != 0:
            raise BackendError(
                f"sbatch failed (exit {returncode}): {stderr.strip() or stdout.strip()}"
            )
        job_id = stdout.strip().splitlines()[-1].split(";")[0].strip() if stdout.strip() else ""
        if not job_id:
            raise BackendError("sbatch --parsable printed no job id")
        return job_id

    async def _submit_single(self, command: Sequence[str], env: Optional[dict]) -> ShardLaunch:
        """Write a batch script for ``command``, submit it, return the handle."""
        _, script, stdout_path, stderr_path = self._scratch_paths()
        script.write_text(
            "#!/bin/bash\nexec " + " ".join(shlex.quote(str(t)) for t in command) + "\n",
            encoding="utf8",
        )
        job_id = await self._sbatch(
            [f"--output={stdout_path}", f"--error={stderr_path}", *self.sbatch_args, str(script)],
            env,
        )
        return SlurmLaunch(self, job_id, stderr_path, env=env)

    async def _submit_array(
        self, commands: Sequence[Sequence[str]], env: Optional[dict]
    ) -> List[ShardLaunch]:
        """Submit ``commands`` as one ``sbatch --array`` job, one task each.

        The batch script dispatches on ``$SLURM_ARRAY_TASK_ID``; task ``k``
        becomes its own :class:`SlurmLaunch` under the id ``<base>_<k>``,
        which every Slurm tool accepts for per-task polling, accounting and
        cancellation — the wait/kill/reap contract is unchanged.
        """
        work_dir, script, _, _ = self._scratch_paths(suffix="-array")
        branches = []
        for index, command in enumerate(commands):
            quoted = " ".join(shlex.quote(str(t)) for t in command)
            branches.append(f"{index})\n  exec {quoted}\n  ;;")
        branches.append('*)\n  echo "unexpected SLURM_ARRAY_TASK_ID" >&2\n  exit 64\n  ;;')
        body = "\n".join(branches)
        script.write_text(
            f'#!/bin/bash\ncase "$SLURM_ARRAY_TASK_ID" in\n{body}\nesac\n', encoding="utf8"
        )
        stem = script.with_suffix("")
        job_id = await self._sbatch(
            [
                f"--output={stem}_%a.out",
                f"--error={stem}_%a.err",
                f"--array=0-{len(commands) - 1}",
                *self.sbatch_args,
                str(script),
            ],
            env,
        )
        return [
            SlurmLaunch(
                self,
                f"{job_id}_{index}",
                Path(f"{stem}_{index}.err"),
                env=env,
            )
            for index in range(len(commands))
        ]

    @classmethod
    def from_spec(cls, spec: "BackendSpec") -> "SlurmBackend":
        """``--backend slurm[:slots][,workers=M][,bin_dir=DIR][,work_dir=DIR][,poll=SECONDS][,array=on]``."""
        cls._reject_unknown_options(
            spec, ("name", "bin_dir", "work_dir", "poll", "workers", "array")
        )
        try:
            poll_interval = float(spec.options.get("poll", 2.0))
        except ValueError:
            raise BackendError(f"slurm poll must be a number, got {spec.options['poll']!r}")
        array_text = spec.options.get("array", "off").lower()
        if array_text not in ("on", "off"):
            raise BackendError(
                f"slurm array must be 'on' or 'off', got {spec.options['array']!r}"
            )
        return cls(
            slots=spec.slots,
            name=spec.options.get("name"),
            workers=cls._workers_from_spec(spec),
            bin_dir=spec.options.get("bin_dir"),
            work_dir=spec.options.get("work_dir"),
            poll_interval=poll_interval,
            array=array_text == "on",
        )


# ----------------------------------------------------------------- CLI specs
#: Backend kinds instantiable from the CLI, by their ``--backend`` spelling.
BACKEND_KINDS: Dict[str, type] = {
    LocalProcessBackend.kind: LocalProcessBackend,
    SSHBackend.kind: SSHBackend,
    SlurmBackend.kind: SlurmBackend,
}


@dataclass(frozen=True)
class BackendSpec:
    """One parsed ``--backend NAME[:SLOTS][,KEY=VALUE...]`` CLI spec."""

    kind: str
    slots: Optional[int]
    options: Dict[str, str]

    @classmethod
    def parse(cls, text: str) -> "BackendSpec":
        """Parse the CLI spelling, validating kind, slots, and option syntax."""
        head, *option_parts = str(text).strip().split(",")
        kind, _, slots_text = head.partition(":")
        kind = kind.strip()
        if kind not in BACKEND_KINDS:
            raise BackendError(
                f"unknown backend {kind!r}; available: {sorted(BACKEND_KINDS)}"
            )
        slots: Optional[int] = None
        if slots_text:
            try:
                slots = int(slots_text)
            except ValueError:
                raise BackendError(f"backend slots must be an integer, got {slots_text!r}")
        options: Dict[str, str] = {}
        for part in option_parts:
            key, separator, value = part.partition("=")
            if not separator or not key.strip():
                raise BackendError(
                    f"backend option {part!r} is not KEY=VALUE (in spec {text!r})"
                )
            options[key.strip()] = value.strip()
        return cls(kind=kind, slots=slots, options=options)


def build_backend(spec) -> ExecutionBackend:
    """Instantiate one backend from a :class:`BackendSpec` or its CLI text."""
    if not isinstance(spec, BackendSpec):
        spec = BackendSpec.parse(spec)
    return BACKEND_KINDS[spec.kind].from_spec(spec)


def build_backends(specs: Sequence) -> List[ExecutionBackend]:
    """Instantiate a backend roster, disambiguating duplicate names.

    ``--backend local:1 --backend local:1`` is a natural thing to type when
    testing; the second instance becomes ``local#2`` so reports and failover
    logs stay unambiguous.
    """
    backends = [build_backend(spec) for spec in specs]
    seen: Dict[str, int] = {}
    for backend in backends:
        count = seen.get(backend.name, 0) + 1
        seen[backend.name] = count
        if count > 1:
            backend.name = f"{backend.name}#{count}"
    return backends


# ------------------------------------------------------------------ templates
def render_slurm_script(
    experiment_id: str,
    shard_count: int,
    *,
    journal_dir,
    workers_per_shard: int = 1,
    shard_args: Sequence[str] = (),
    time_limit: str = "04:00:00",
) -> str:
    """A ready-to-submit Slurm array-job script for an ``n``-way sharded run.

    Each array task runs one ``--shard k/n --resume`` invocation — the exact
    argv :func:`shard_argv` builds for the orchestrator's own launches — so
    Slurm's ``--requeue`` machinery resumes a preempted shard from its
    journal.  Merge afterwards with ``--merge-only`` from any node that sees
    ``journal_dir``.
    """
    command = render_shell_command(
        shard_argv(
            experiment_id,
            f"${{SLURM_ARRAY_TASK_ID}}/{shard_count}",
            journal_dir,
            shard_args=["--workers", str(workers_per_shard), *shard_args],
            resume=True,
        )
    )
    return f"""#!/bin/bash
#SBATCH --job-name=frlfi-{experiment_id}
#SBATCH --array=1-{shard_count}
#SBATCH --ntasks=1
#SBATCH --cpus-per-task={workers_per_shard}
#SBATCH --time={time_limit}
#SBATCH --requeue
# One array task per shard; --resume makes a requeued task continue from its
# journal in the shared store instead of recomputing finished cells.
{command}

# After the whole array completes, merge from any node:
#   repro-campaign {experiment_id} --merge-only \\
#     --journal-dir {shlex.quote(str(journal_dir))} --output results/
"""


def render_k8s_manifest(
    experiment_id: str,
    shard_count: int,
    *,
    journal_dir,
    workers_per_shard: int = 1,
    shard_args: Sequence[str] = (),
    image: str = "frl-fi-repro:latest",
    journal_claim: str = "frlfi-journals",
) -> str:
    """A ready-to-submit Kubernetes indexed-Job manifest for a sharded run.

    ``completionMode: Indexed`` gives each pod a ``JOB_COMPLETION_INDEX``
    which maps to ``--shard $((index+1))/n`` — again the exact
    :func:`shard_argv` command; ``restartPolicy: OnFailure`` plus ``--resume``
    means a rescheduled pod continues from its shard journal on the shared
    volume (``journal_claim``).  Merge afterwards with ``--merge-only`` from
    any pod mounting the same volume.
    """
    shard_command = render_shell_command(
        shard_argv(
            experiment_id,
            f"$((JOB_COMPLETION_INDEX + 1))/{shard_count}",
            journal_dir,
            shard_args=["--workers", str(workers_per_shard), *shard_args],
            resume=True,
        )
    )
    return f"""apiVersion: batch/v1
kind: Job
metadata:
  name: frlfi-{experiment_id}
spec:
  completions: {shard_count}
  parallelism: {shard_count}
  completionMode: Indexed
  backoffLimit: {shard_count * 3}
  template:
    spec:
      restartPolicy: OnFailure
      containers:
        - name: shard
          image: {image}
          command: ["/bin/sh", "-c"]
          args:
            - {shard_command}
          volumeMounts:
            - name: journals
              mountPath: {journal_dir}
      volumes:
        - name: journals
          persistentVolumeClaim:
            claimName: {journal_claim}
# After the Job completes, merge from any pod mounting the journal volume:
#   repro-campaign {experiment_id} --merge-only --journal-dir {journal_dir} --output results/
"""
