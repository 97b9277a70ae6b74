"""One campaign request for every entry path.

A campaign starts one of three ways: the one-shot command (``repro-campaign
fig6a ...``), ``repro-campaign orchestrate``, or the resident service
(``serve``/``submit``).  All three must build the same plan, because each
shard subprocess rebuilds its plan from the arguments its launcher forwards,
and shard journals only merge when the plan fingerprints match.

:class:`CampaignRequest` is exactly what a shard inherits: experiment id,
scale, seed, workers, batch size, vectorize mode and policy cache.  This
module also holds the one scale-preset table, the one settings validator
(:func:`check_settings`), the one runner construction
(:meth:`CampaignRequest.runner`), the one forwarded argv
(:meth:`CampaignRequest.to_argv`) and the one result writer
(:func:`save_result`).  The entry paths share the request, not their drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.core.config import DroneScale, GridWorldScale
from repro.core.pretrained import PolicyCache
from repro.runtime.runner import CampaignRunner, default_worker_count
from repro.runtime.vectorize import VECTORIZE_MODES
from repro.utils.serialization import save_json

#: Workload scale presets: name -> (gridworld scale factory, drone scale factory).
SCALE_PRESETS = {
    "tiny": (GridWorldScale.tiny, DroneScale.tiny),
    "fast": (GridWorldScale.fast, DroneScale.fast),
    "paper": (GridWorldScale.paper, DroneScale.paper),
}


class SettingError(ValueError):
    """A campaign setting broke its rule.

    ``str(error)`` names the setting for library callers; :attr:`usage` is
    the same complaint phrased with the command-line flag, which is what the
    CLI reports through ``parser.error``.
    """

    def __init__(self, name: str, flag: str, requirement: str, value) -> None:
        super().__init__(f"{name} must be {requirement}, got {value!r}")
        self.usage = f"{flag} must be {requirement}"


#: The rule of every checked setting: keyword -> (name, flag, requirement, test).
_RULES = {
    "scale": ("scale", "--scale", f"one of {sorted(SCALE_PRESETS)}", SCALE_PRESETS.__contains__),
    "vectorize": (
        "vectorize", "--vectorize", f"one of {list(VECTORIZE_MODES)}", VECTORIZE_MODES.__contains__
    ),
    "workers": (
        "workers", "--workers", ">= 0 (0 picks a machine-sized default)", lambda v: v >= 0
    ),
    "workers_per_shard": ("workers per shard", "--workers-per-shard", ">= 1", lambda v: v >= 1),
    "batch_cells": ("batch cells", "--batch-cells", ">= 1", lambda v: v >= 1),
    "shards": ("shard count", "--shards", ">= 1", lambda v: v >= 1),
    "max_retries": ("max retries", "--max-retries", ">= 0", lambda v: v >= 0),
    "poll_interval": ("poll interval", "--poll-interval", "> 0", lambda v: v > 0),
    "stall_timeout": ("stall timeout", "--stall-timeout", "> 0", lambda v: v > 0),
    "inject_kill_shard": ("injected kill shard", "--inject-kill-shard", ">= 1", lambda v: v >= 1),
}


def check_settings(**settings) -> None:
    """Raise :class:`SettingError` for the first setting that breaks its rule.

    Keywords name the settings (``shards=0``, ``poll_interval=0.5``, ...);
    ``None`` means "not set" and always passes.
    """
    for keyword, value in settings.items():
        name, flag, requirement, test = _RULES[keyword]
        if value is not None and not test(value):
            raise SettingError(name, flag, requirement, value)


@dataclass(frozen=True)
class CampaignRequest:
    """What a campaign runs: the arguments every one of its shards inherits.

    ``workers`` is the process-pool size of whichever process runs the cells
    (``0`` picks a machine-sized default).  ``scale=None`` leaves the scale
    to whoever serves the request: the campaign service fills in its own
    default before building a runner or an argv.
    """

    experiment_id: str
    scale: Optional[str] = "fast"
    seed: Optional[int] = None
    workers: int = 1
    batch_cells: int = 1
    vectorize: str = "auto"
    cache_dir: Optional[Path] = None

    def validate(self) -> "CampaignRequest":
        """Return the request, or raise ``ValueError`` naming the bad field."""
        if not self.experiment_id:
            raise ValueError("a campaign request needs an experiment id")
        check_settings(
            scale=self.scale,
            vectorize=self.vectorize,
            workers=self.workers,
            batch_cells=self.batch_cells,
        )
        return self

    def runner(self, *, journal_dir=None, resume: bool = False, shard=None) -> CampaignRunner:
        """A :class:`~repro.runtime.runner.CampaignRunner` for this request's plans."""
        gridworld_factory, drone_factory = SCALE_PRESETS[self.scale]
        gridworld_scale, drone_scale = gridworld_factory(), drone_factory()
        if self.seed is not None:
            gridworld_scale = gridworld_scale.with_seed(self.seed)
            drone_scale = drone_scale.with_seed(self.seed)
        return CampaignRunner(
            gridworld_scale=gridworld_scale,
            drone_scale=drone_scale,
            cache=PolicyCache(self.cache_dir) if self.cache_dir is not None else None,
            workers=self.workers or default_worker_count(),
            batch_size=self.batch_cells,
            journal_dir=journal_dir,
            resume=resume,
            shard=shard,
            vectorize=self.vectorize,
        )

    def to_argv(self, *, workers: bool = True) -> List[str]:
        """The command-line options a shard of this request is launched with.

        The one-shot parser rebuilds an equal request from ``[experiment_id,
        *to_argv()]``, which is what makes a shard build the same plan
        fingerprint as the process that launched it.  Cluster templates pass
        ``workers=False``: they render ``--workers`` themselves, because it
        doubles as the scheduler's CPU request.
        """
        argv = ["--scale", self.scale]
        if workers:
            argv += ["--workers", str(self.workers)]
        if self.batch_cells > 1:
            argv += ["--batch-cells", str(self.batch_cells)]
        if self.vectorize != "auto":
            argv += ["--vectorize", self.vectorize]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        if self.cache_dir is not None:
            argv += ["--cache-dir", str(self.cache_dir)]
        return argv


def save_result(output_dir, name: str, result) -> None:
    """Write a merged result as ``<name>.txt`` and ``<name>.json`` in ``output_dir``.

    Every entry path saves through here, so a served or orchestrated payload
    is byte-identical to a one-shot ``--output`` run and CI can compare them
    with plain ``diff``.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    text = result.render() if hasattr(result, "render") else str(result)
    (output_dir / f"{name}.txt").write_text(text + "\n", encoding="utf8")
    if hasattr(result, "as_dict"):
        save_json(output_dir / f"{name}.json", result.as_dict())


__all__ = [
    "SCALE_PRESETS",
    "CampaignRequest",
    "SettingError",
    "check_settings",
    "save_result",
]
