"""The parallel fault-injection campaign runner.

:class:`CampaignRunner` executes campaign plans on a ``concurrent.futures``
process pool.  Cells are submitted in plan order and their outputs merged in
plan order, so a pool of any size produces byte-identical result payloads to
the serial in-process run (``workers=1``, :meth:`CampaignPlan.run_serial`).

Three scaling features layer on top of the basic fan-out:

* **Per-worker policy residency** — cells reference pretrained baselines by
  :class:`~repro.runtime.residency.PolicyRef`; a pool initializer makes every
  referenced policy resident once per worker, so submission payloads stay
  small (no per-cell state-dict pickling).
* **Cell batching** (``batch_size``) — small cells are grouped into one pool
  submission to amortize process round-trips, e.g. on single-core hosts.
* **Vectorized cell groups** (``vectorize="auto"|"on"|"off"``) — consecutive
  cells sharing a function with a registered group runner (see
  :mod:`repro.runtime.vectorize`) evaluate through one lockstep pass per
  group, inside each batch; ``docs/PERFORMANCE.md`` explains what this buys
  and why the payloads stay byte-identical.
* **Streaming journals** (``journal_dir`` / an explicit
  :class:`~repro.runtime.journal.CampaignJournal`) — completed cell outputs
  are appended to a per-artifact JSONL file as they arrive, and a run with
  ``resume=True`` skips already-journaled cells, producing a byte-identical
  merged payload after an interruption.
* **Multi-machine sharding** (``shard="k/n"`` + :meth:`CampaignRunner.merge_shards`)
  — each machine runs a disjoint strided subset of cell indices into its own
  shard journal; once every shard journal has landed in the shared
  ``journal_dir``, any machine merges them into the byte-identical unsharded
  payload without executing a cell (see :mod:`repro.runtime.sharding`).

Worker failures are surfaced as :class:`CellExecutionError` naming the failed
cell; a worker process dying outright (segfault, OOM kill) raises the same
error with the pool's diagnostic chained.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.config import DroneScale, GridWorldScale
from repro.core.pretrained import PolicyCache
from repro.runtime.cells import CampaignPlan, CellTask
from repro.runtime.journal import CampaignJournal
from repro.runtime.plans import CampaignContext, build_plan, plannable_experiment_ids
from repro.runtime.residency import (
    PolicyRef,
    collect_policy_refs,
    preload_policy_refs,
    resolve_policy_kwargs,
)
from repro.runtime.sharding import ShardRunReport, ShardSpec, load_shard_outputs
from repro.runtime.vectorize import (
    GROUP_CELL_CAP,
    group_runner_for,
    has_group_runner,
    validate_vectorize_mode,
)


class CampaignError(RuntimeError):
    """Base error for campaign execution failures."""


class CellExecutionError(CampaignError):
    """A campaign cell raised (or its worker process died)."""

    def __init__(self, cell: CellTask, message: str) -> None:
        super().__init__(f"campaign cell {cell.describe()} failed: {message}")
        self.cell = cell
        self.message = message

    def __reduce__(self):
        # Exceptions raised inside pool workers are pickled back to the
        # parent; the default reduction would replay __init__ with the
        # formatted string, so reconstruct from the original arguments.
        return (type(self), (self.cell, self.message))


def _run_cell_batch(cells: Sequence[CellTask], vectorize: str = "off") -> List[object]:
    """Run a batch of cells in a pool worker, in order.

    With ``vectorize`` other than ``"off"``, consecutive cells sharing a
    function with a registered group runner (see
    :mod:`repro.runtime.vectorize`) are evaluated through one lockstep call —
    this is how a whole ``--batch-cells`` group becomes one vectorized pass.
    ``"on"`` additionally *requires* a group runner for every cell.

    Wraps any cell failure in :class:`CellExecutionError` *inside* the worker,
    so the parent can attribute the failure to the exact cell even when
    several cells share one submission.
    """
    outputs: List[object] = []
    cursor = 0
    while cursor < len(cells):
        cell = cells[cursor]
        runner = group_runner_for(cell.fn) if vectorize != "off" else None
        if vectorize == "on" and runner is None:
            raise CampaignError(
                f"--vectorize on: no vectorized group runner is registered for "
                f"{getattr(cell.fn, '__name__', cell.fn)!r} "
                f"(cell {cell.describe()}); use --vectorize auto or off"
            )
        if runner is None:
            try:
                outputs.append(cell.run())
            except Exception as exc:
                raise CellExecutionError(cell, f"{type(exc).__name__}: {exc}") from exc
            cursor += 1
            continue
        group = [cell]
        while (
            cursor + len(group) < len(cells)
            and cells[cursor + len(group)].fn is cell.fn
            and len(group) < GROUP_CELL_CAP
        ):
            group.append(cells[cursor + len(group)])
        try:
            resolved = [resolve_policy_kwargs(member.kwargs) for member in group]
            group_outputs = list(runner(resolved))
        except Exception as exc:
            raise CellExecutionError(
                cell,
                f"vectorized group of {len(group)} cells failed with "
                f"{type(exc).__name__}: {exc}",
            ) from exc
        if len(group_outputs) != len(group):
            raise CellExecutionError(
                cell,
                f"vectorized group runner returned {len(group_outputs)} outputs "
                f"for {len(group)} cells",
            )
        outputs.extend(group_outputs)
        cursor += len(group)
    return outputs


def default_worker_count() -> int:
    """A sensible default worker count: the *schedulable* CPUs, capped at 8.

    ``os.cpu_count()`` reports the machine's CPUs, which overcounts in
    cgroup-limited CI containers; prefer ``os.process_cpu_count()`` (3.13+)
    or the scheduling affinity mask when available.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        count = process_cpu_count()
    elif hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count()
    return max(1, min(count or 1, 8))


class CampaignRunner:
    """Decompose registered artifacts into cells and run them on a pool.

    ``workers=1`` (the default) executes every plan serially in-process and is
    bit-identical to :meth:`~repro.runtime.cells.CampaignPlan.run_serial`;
    ``workers=N`` fans the cells out over ``N`` processes and merges the
    outputs in deterministic plan order, so the result payloads are identical
    to the serial run's.

    ``batch_size=N`` groups up to ``N`` cells into one pool submission.
    ``journal_dir`` enables streaming result persistence (one
    ``<experiment_id>.jsonl`` per artifact); with ``resume=True``,
    already-journaled cells of a matching plan are skipped.

    ``shard="k/n"`` (or a :class:`~repro.runtime.sharding.ShardSpec`) runs
    only the cells the strided partition assigns to shard *k* of *n*,
    journaling them to ``<label>.shard-k-of-n.jsonl``; the run returns a
    :class:`~repro.runtime.sharding.ShardRunReport` and never merges.
    :meth:`merge_shards` is the other half: it folds a complete set of shard
    journals into the merged result without executing a cell.
    """

    def __init__(
        self,
        gridworld_scale: Optional[GridWorldScale] = None,
        drone_scale: Optional[DroneScale] = None,
        cache: Optional[PolicyCache] = None,
        workers: Optional[int] = None,
        mp_context: Optional[str] = None,
        batch_size: int = 1,
        journal_dir: Optional[Path] = None,
        resume: bool = False,
        shard: Optional[object] = None,
        vectorize: str = "auto",
    ) -> None:
        self.context = CampaignContext.create(gridworld_scale, drone_scale, cache)
        self.workers = max(1, int(workers)) if workers is not None else 1
        self.mp_context = mp_context
        self.batch_size = max(1, int(batch_size))
        self.vectorize = validate_vectorize_mode(vectorize)
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.resume = resume
        if shard is not None and not isinstance(shard, ShardSpec):
            shard = ShardSpec.parse(shard)
        self.shard: Optional[ShardSpec] = shard
        self.results: Dict[str, object] = {}

    # ------------------------------------------------------------------- plans
    @property
    def experiment_ids(self) -> List[str]:
        """Identifiers of every runnable paper artifact."""
        return plannable_experiment_ids()

    def plan(self, experiment_id: str) -> CampaignPlan:
        """Build (but do not run) the plan for ``experiment_id``."""
        return build_plan(experiment_id, self.context)

    def journal_for(self, plan: CampaignPlan, name: Optional[str] = None):
        """The streaming journal for ``plan`` under ``journal_dir`` (or None).

        With a ``shard`` configured the journal is the shard journal
        (``<label>.shard-k-of-n.jsonl``) and its header records the shard
        coordinates, so whole-plan and shard journals can never be confused.
        """
        if self.journal_dir is None:
            return None
        label = name or plan.experiment_id
        if self.shard is not None:
            return CampaignJournal(
                self.shard.journal_path(self.journal_dir, label),
                plan,
                shard=(self.shard.index, self.shard.count),
            )
        return CampaignJournal(self.journal_dir / f"{label}.jsonl", plan)

    # --------------------------------------------------------------- execution
    def run(self, experiment_id: str):
        """Run one artifact, parallel when workers allow, and store the result."""
        plan = self.plan(experiment_id)
        result = self.run_plan(plan, journal=self.journal_for(plan))
        self.results[experiment_id] = result
        return result

    def run_all(self, experiment_ids: Optional[List[str]] = None) -> Dict[str, object]:
        """Run several artifacts (default: all) and return the result map."""
        for experiment_id in experiment_ids or self.experiment_ids:
            self.run(experiment_id)
        return dict(self.results)

    def run_plan(self, plan: CampaignPlan, journal: Optional[CampaignJournal] = None):
        """Execute an explicit plan through the configured executor.

        With ``workers > 1`` every plan goes through the pool.
        With a ``journal``, completed cell outputs stream to disk as they
        arrive, and ``resume=True`` skips cells the journal already holds;
        merge inputs then come from their JSON-decoded form in both the
        journaled and the resumed run, keeping the payloads byte-identical.

        With a configured ``shard`` only that shard's cells run (journaled to
        the shard journal) and the return value is a
        :class:`~repro.runtime.sharding.ShardRunReport` — sharded runs refuse
        to merge, because no single shard holds every cell output.
        """
        if self.shard is not None:
            return self._run_shard(plan, journal)
        if journal is None:
            if plan.cell_count == 0 or (self.workers <= 1 and self.vectorize == "off"):
                return plan.run_serial()
            outputs = self._execute(plan.cells, list(range(plan.cell_count)), None)
            return plan.merge(outputs)
        completed = journal.load() if self.resume else {}
        journal.start(completed)
        try:
            outputs = self._execute(plan.cells, self._pending(plan, completed), journal)
            for index, output in completed.items():
                outputs[index] = output
            return plan.merge(outputs)
        finally:
            journal.close()

    @staticmethod
    def _pending(plan: CampaignPlan, completed: Dict[int, object]) -> List[int]:
        return [index for index in range(plan.cell_count) if index not in completed]

    # ---------------------------------------------------------------- sharding
    def _run_shard(self, plan: CampaignPlan, journal: Optional[CampaignJournal]):
        """Run only this runner's shard of ``plan``, journaling every cell."""
        if journal is None:
            raise CampaignError(
                f"sharded execution of {plan.experiment_id!r} requires a streaming "
                "journal: configure journal_dir (CLI: --journal-dir or --output)"
            )
        assigned = self.shard.cell_indices(plan.cell_count)
        completed = journal.load() if self.resume else {}
        journal.start(completed)
        pending = [index for index in assigned if index not in completed]
        try:
            self._execute(plan.cells, pending, journal)
        finally:
            journal.close()
        return ShardRunReport(
            experiment_id=plan.experiment_id,
            shard=self.shard,
            cell_count=plan.cell_count,
            assigned=len(assigned),
            executed=len(pending),
            resumed=len(assigned) - len(pending),
            journal_path=journal.path,
        )

    def merge_shards(self, plan: CampaignPlan, name: Optional[str] = None):
        """Merge a complete set of shard journals — never executing a cell.

        Validates every ``<label>.shard-k-of-n.jsonl`` under ``journal_dir``
        against the plan's machine-independent fingerprint, verifies the
        journaled indices cover the whole plan (raising
        :class:`~repro.runtime.sharding.ShardMergeError` naming the missing
        cells and shards otherwise), and merges in plan order.  Outputs are
        consumed in their JSON-decoded form — exactly as a journaled
        single-machine run consumes them — so the merged payload is
        byte-identical to an unsharded run.
        """
        if self.journal_dir is None:
            raise CampaignError(
                "merge_shards requires journal_dir — the directory holding the "
                "shard journals (CLI: --journal-dir or --output)"
            )
        outputs_by_index = load_shard_outputs(plan, self.journal_dir, name)
        return plan.merge([outputs_by_index[index] for index in range(plan.cell_count)])

    def _execute(
        self,
        cells: List[CellTask],
        pending: List[int],
        journal: Optional[CampaignJournal],
    ) -> List[object]:
        """Run the pending cells and return the (sparse) output list.

        Outputs land at their cell's plan index; positions of already-completed
        cells stay ``None`` for the caller to fill from the journal.
        """
        outputs: List[object] = [None] * len(cells)

        def deliver(index: int, output: object) -> None:
            """Journal (when enabled) and slot one completed cell output."""
            outputs[index] = journal.record(index, output) if journal is not None else output

        if not pending:
            return outputs
        if self.workers <= 1:
            # Group consecutive same-function cells so the serial path also
            # benefits from (and exercises) the vectorized lockstep runners;
            # each group journals as soon as it completes.
            for group in self._serial_groups(cells, pending):
                group_outputs = _run_cell_batch(
                    [cells[index] for index in group], self.vectorize
                )
                for index, output in zip(group, group_outputs):
                    deliver(index, output)
            return outputs
        batches = [
            pending[start : start + self.batch_size]
            for start in range(0, len(pending), self.batch_size)
        ]
        self._map_batches(cells, batches, deliver)
        return outputs

    def _serial_groups(
        self, cells: List[CellTask], pending: List[int]
    ) -> List[List[int]]:
        """Split pending indices into journal-granularity execution groups.

        Consecutive indices whose cells share a function with a registered
        group runner fuse into one group (capped at
        :data:`~repro.runtime.vectorize.GROUP_CELL_CAP`); everything else runs
        as singleton groups, matching the historical cell-at-a-time loop.
        """
        if self.vectorize == "off":
            return [[index] for index in pending]
        groups: List[List[int]] = []
        for index in pending:
            fn = cells[index].fn
            if (
                groups
                and cells[groups[-1][-1]].fn is fn
                and has_group_runner(fn)
                and len(groups[-1]) < GROUP_CELL_CAP
            ):
                groups[-1].append(index)
            else:
                groups.append([index])
        return groups

    def _map_batches(self, cells, batches, deliver) -> None:
        refs = collect_policy_refs(cells[index] for batch in batches for index in batch)
        context = multiprocessing.get_context(self.mp_context)
        pool = ProcessPoolExecutor(
            max_workers=min(self.workers, len(batches)),
            mp_context=context,
            initializer=preload_policy_refs,
            initargs=(refs,),
        )
        try:
            futures = {
                pool.submit(
                    _run_cell_batch, [cells[index] for index in batch], self.vectorize
                ): batch
                for batch in batches
            }
            # Stream completions as they arrive so the journal captures every
            # finished cell even if a later batch (or the campaign) dies.
            for future in as_completed(futures):
                batch = futures[future]
                try:
                    batch_outputs = future.result()
                except BrokenProcessPool as exc:
                    # The executor cannot attribute the crash, so don't claim
                    # this particular cell caused it.
                    raise CellExecutionError(
                        cells[batch[0]],
                        "a worker process died before this cell's result was "
                        "returned (the crash may have occurred in any in-flight "
                        "cell)",
                    ) from exc
                except CampaignError:
                    raise
                except Exception as exc:
                    raise CellExecutionError(
                        cells[batch[0]], f"{type(exc).__name__}: {exc}"
                    ) from exc
                for index, output in zip(batch, batch_outputs):
                    deliver(index, output)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    # ---------------------------------------------------------------- reporting
    def report(self) -> str:
        """Plain-text report of every merged result collected so far."""
        sections = []
        for experiment_id in sorted(self.results):
            result = self.results[experiment_id]
            rendered = result.render() if hasattr(result, "render") else str(result)
            sections.append(f"=== {experiment_id} ===\n{rendered}")
        return "\n\n".join(sections)


# Re-exported for callers that need to type-annotate refs without importing
# the residency module directly.
__all__ = [
    "CampaignError",
    "CampaignRunner",
    "CellExecutionError",
    "PolicyRef",
    "ShardRunReport",
    "ShardSpec",
    "default_worker_count",
]
