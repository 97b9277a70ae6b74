"""Registry of vectorized *group runners* for campaign cell functions.

A group runner trains a batch of same-function campaign cells through one
FRL training loop instead of one loop per cell, and returns the per-cell
outputs in cell order, bitwise identical to calling the cell function once
per cell.  Experiment modules register their runners at import time; pool
workers repopulate the registry automatically because unpickling a cell's
``fn`` imports its defining module.

The registry is keyed by the cell function *object*, so registration and
lookup always agree with what the plan builders put into their cells.  The
campaign runner consults it according to ``--vectorize``:

* ``auto`` (default) — groups consecutive same-function cells through their
  registered runner; functions without one run cell by cell.
* ``on`` — like ``auto`` but raises :class:`~repro.runtime.runner.CampaignError`
  for any cell whose function has no registered runner (CI identity jobs use
  this to guarantee the group path actually ran).
* ``off`` — never consults the registry; every cell runs on its own, its
  drones still training as lanes of its own loop.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

#: The accepted ``--vectorize`` modes.
VECTORIZE_MODES = ("auto", "on", "off")

#: Cap on cells fused into one lockstep group: bounds peak memory (lanes =
#: cells x agents) while keeping the python-overhead amortization win.
GROUP_CELL_CAP = 32

GroupRunner = Callable[[List[dict]], List[object]]

_GROUP_RUNNERS: Dict[Callable, GroupRunner] = {}


def validate_vectorize_mode(mode: str) -> str:
    """Validate and normalize a ``--vectorize`` mode string."""
    if mode not in VECTORIZE_MODES:
        raise ValueError(
            f"vectorize must be one of {VECTORIZE_MODES}, got {mode!r}"
        )
    return mode


def register_group_runner(fn: Callable, runner: GroupRunner) -> None:
    """Register ``runner`` as the vectorized evaluator for cells calling ``fn``.

    ``runner`` receives the cells' *resolved* keyword-argument dicts (policy
    refs already materialized) in cell order and must return one output per
    cell, each bitwise identical to ``fn(**kwargs)``.  Passing ``None``
    removes any existing registration.
    """
    if runner is None:
        _GROUP_RUNNERS.pop(fn, None)
    else:
        _GROUP_RUNNERS[fn] = runner


def group_runner_for(fn: Callable) -> Optional[GroupRunner]:
    """The registered group runner for ``fn``, or ``None``."""
    return _GROUP_RUNNERS.get(fn)


def has_group_runner(fn: Callable) -> bool:
    """Whether a vectorized group runner is registered for ``fn``."""
    return fn in _GROUP_RUNNERS


def registered_functions() -> List[Callable]:
    """The cell functions with registered group runners (introspection/tests)."""
    return list(_GROUP_RUNNERS)


__all__ = [
    "GROUP_CELL_CAP",
    "VECTORIZE_MODES",
    "group_runner_for",
    "has_group_runner",
    "register_group_runner",
    "registered_functions",
    "validate_vectorize_mode",
]
