"""Cell decomposition primitives for fault-injection campaigns.

A paper artifact (``fig3a`` ... ``fig9``, ``table1``) is a grid of independent
(figure, BER, fault location, seed) measurements.  The runtime layer expresses
each artifact as a :class:`CampaignPlan`: a list of :class:`CellTask` items —
each a picklable, module-level function plus keyword arguments that returns a
JSON-native output — and a merge function that folds the per-cell outputs (in
cell order) into the artifact's result object.

Because every cell derives its random streams from keyed
``numpy.random.SeedSequence`` children (via :class:`repro.utils.rng.RngFactory`
or :func:`derive_cell_seeds`), the same plan executed serially, on a process
pool, or across machines produces bit-identical merged results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.residency import resolve_policy_kwargs


@dataclass
class CellTask:
    """One independent unit of campaign work.

    ``fn`` must be a module-level (importable, hence picklable) callable and
    ``kwargs`` its keyword arguments; ``key`` identifies the cell within its
    experiment (e.g. ``("repeat", 0, "ber", 1, "episode", 2)``) for progress
    and error reporting.

    Pretrained baselines appear in ``kwargs`` as
    :class:`repro.runtime.residency.PolicyRef` handles rather than state
    dicts; :meth:`run` resolves them through the per-process residency
    registry, so the cell function itself always receives plain state dicts.
    """

    experiment_id: str
    key: Tuple
    fn: Callable
    kwargs: Dict = field(default_factory=dict)

    def run(self):
        """Execute the cell: resolve any :class:`PolicyRef` kwargs, call ``fn``."""
        return self.fn(**resolve_policy_kwargs(self.kwargs))

    def describe(self) -> str:
        """Human-readable cell identifier for progress and error messages."""
        return f"{self.experiment_id}{list(self.key)}"


@dataclass
class CampaignPlan:
    """An experiment decomposed into independent cells plus a merge step.

    ``merge`` receives the cell outputs in the same order as ``cells``
    regardless of completion order, so floating-point accumulation matches the
    original serial loops exactly.  Shared pretrained baselines are trained
    (or found) in the disk-backed policy cache while the plan is *built* (in
    the parent process) and referenced from cells by
    :class:`~repro.runtime.residency.PolicyRef`, so pooled workers never
    retrain them and submission payloads stay small.
    """

    experiment_id: str
    cells: List[CellTask]
    merge: Callable[[List[object]], object]

    @property
    def cell_count(self) -> int:
        """Number of independent cells in the plan."""
        return len(self.cells)

    def run_serial(self):
        """Run every cell in-process, in plan order, and merge.

        The reference execution: :class:`~repro.runtime.runner.CampaignRunner`
        produces the same payload on any pool, shard split or resume.
        """
        return self.merge([cell.run() for cell in self.cells])


def derive_cell_seeds(root_seed: Optional[int], count: int) -> List[int]:
    """Derive ``count`` independent integer seeds from ``root_seed``.

    Uses ``numpy.random.SeedSequence.spawn`` so the derived seeds are
    statistically independent and reproducible regardless of how many cells a
    campaign is split into.  Used by the CLI's ``--replicates`` option to give
    each campaign replicate its own seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    children = np.random.SeedSequence(root_seed).spawn(count)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]


def shard_cell_indices(shard_index: int, shard_count: int, cell_count: int) -> List[int]:
    """The cell indices assigned to shard ``shard_index`` of ``shard_count``.

    The partition is strided (shard *k* of *n* owns indices ``k-1, k-1+n,
    k-1+2n, ...``), so the expensive cells of a plan — which cluster by grid
    row, e.g. high-BER rows — spread evenly across shards instead of landing
    on one machine.  For every ``(shard_count, cell_count)`` the shards are
    pairwise disjoint and their union is ``range(cell_count)`` (pinned by
    ``tests/properties``), which is what lets ``--merge-only`` treat coverage
    gaps as hard errors.

    ``shard_index`` is 1-based, matching the CLI's ``--shard k/n`` spelling.
    """
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard_count}")
    if not 1 <= shard_index <= shard_count:
        raise ValueError(
            f"shard index must be in 1..{shard_count}, got {shard_index} "
            "(--shard k/n is 1-based)"
        )
    if cell_count < 0:
        raise ValueError(f"cell count must be non-negative, got {cell_count}")
    return list(range(shard_index - 1, cell_count, shard_count))


def grid_merge_order(repeats: int, rows: int, columns: int) -> List[Tuple[int, int, int]]:
    """The canonical (repeat, row, column) enumeration order of heatmap cells."""
    return [
        (repeat, row, column)
        for repeat in range(repeats)
        for row in range(rows)
        for column in range(columns)
    ]


def accumulate_heatmap(
    outputs: Sequence[float], repeats: int, rows: int, columns: int
) -> np.ndarray:
    """Fold per-cell scalars back into the (rows × columns) accumulator.

    Accumulation happens in the original serial loop order (repeat-major), so
    the floating-point sums are bitwise identical to the historical nested
    loops.
    """
    expected = repeats * rows * columns
    if len(outputs) != expected:
        raise ValueError(f"expected {expected} cell outputs, got {len(outputs)}")
    values = np.zeros((rows, columns))
    for (_repeat, row, column), output in zip(grid_merge_order(repeats, rows, columns), outputs):
        values[row, column] += output
    return values
