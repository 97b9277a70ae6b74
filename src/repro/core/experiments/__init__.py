"""Per-figure cell functions and plan builders, one module per paper study.

Each artifact is a plan builder (``*_plan``) returning a
:class:`~repro.runtime.cells.CampaignPlan` of independent cells; the registry
in :mod:`repro.runtime.plans` maps artifact ids to them and
:class:`~repro.runtime.runner.CampaignRunner` runs them.
"""
