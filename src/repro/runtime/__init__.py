"""Runtime layer: parallel campaign execution over independent cells.

This package is the scaling seam of the reproduction.  Experiments are
decomposed into :class:`~repro.runtime.cells.CellTask` grids by the plan
builders in :mod:`repro.runtime.plans` and executed — serially or on a
process pool — by :class:`~repro.runtime.runner.CampaignRunner`.  Per-cell
randomness always derives from keyed ``numpy.random.SeedSequence`` children,
so execution placement never changes results.

Only the dependency-free cell primitives are imported eagerly; the plan and
runner layers sit *above* :mod:`repro.core` (which itself imports
``repro.runtime.cells``), so they are exposed lazily to keep the import graph
acyclic.
"""

from repro.runtime.cells import CampaignPlan, CellTask, derive_cell_seeds
from repro.runtime.residency import PolicyRef, resolve_policy_ref

_LAZY_EXPORTS = {
    "CampaignContext": "repro.runtime.plans",
    "build_plan": "repro.runtime.plans",
    "plannable_experiment_ids": "repro.runtime.plans",
    "CampaignError": "repro.runtime.runner",
    "CampaignRunner": "repro.runtime.runner",
    "CellExecutionError": "repro.runtime.runner",
    "default_worker_count": "repro.runtime.runner",
    "CampaignJournal": "repro.runtime.journal",
    "JournalProgress": "repro.runtime.journal",
    "journal_records": "repro.runtime.journal",
    "plan_fingerprint": "repro.runtime.journal",
    "BackendError": "repro.runtime.backends",
    "BackendScheduler": "repro.runtime.scheduler",
    "BackendSpec": "repro.runtime.backends",
    "ExecutionBackend": "repro.runtime.backends",
    "LocalProcessBackend": "repro.runtime.backends",
    "SSHBackend": "repro.runtime.backends",
    "SlurmBackend": "repro.runtime.backends",
    "build_backend": "repro.runtime.backends",
    "build_backends": "repro.runtime.backends",
    "shard_argv": "repro.runtime.backends",
    "OrchestratorError": "repro.runtime.orchestrator",
    "OrchestratorReport": "repro.runtime.orchestrator",
    "ShardOrchestrator": "repro.runtime.orchestrator",
    "render_k8s_manifest": "repro.runtime.orchestrator",
    "render_slurm_script": "repro.runtime.orchestrator",
    "ShardMergeError": "repro.runtime.sharding",
    "ShardRunReport": "repro.runtime.sharding",
    "ShardSpec": "repro.runtime.sharding",
    "load_shard_outputs": "repro.runtime.sharding",
    "CampaignRequest": "repro.runtime.request",
    "SettingError": "repro.runtime.request",
    "save_result": "repro.runtime.request",
    "Campaign": "repro.runtime.service",
    "CampaignService": "repro.runtime.service",
    "CampaignSpec": "repro.runtime.service",
    "ServiceError": "repro.runtime.service",
    "QuotaQueue": "repro.runtime.service_queue",
    "ServiceDispatcher": "repro.runtime.service_queue",
    "ServiceAPI": "repro.runtime.service_api",
    "ServiceClient": "repro.runtime.service_api",
    "ServiceClientError": "repro.runtime.service_api",
}

__all__ = [
    "CampaignPlan",
    "CellTask",
    "PolicyRef",
    "derive_cell_seeds",
    "resolve_policy_ref",
    *sorted(_LAZY_EXPORTS),
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
