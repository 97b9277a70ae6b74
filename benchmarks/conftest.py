"""Benchmark harness options.

``--workers N`` runs the campaign benchmarks' plans on ``N`` processes of
:class:`repro.runtime.CampaignRunner` (1 = serial).  ``N=0`` picks a
machine-sized default; the merged results are byte-identical either way,
only the wall clock changes.
``--vectorize auto|on|off`` picks the lockstep cell-group evaluation mode,
under the same byte-identity contract.  The ``FRLFI_BENCH_WORKERS`` /
``FRLFI_BENCH_VECTORIZE`` environment variables are the equivalent knobs for
environments that cannot pass pytest options (e.g. CI matrices).
"""

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--workers",
        action="store",
        type=int,
        default=int(os.environ.get("FRLFI_BENCH_WORKERS", "1")),
        help="campaign worker processes for decomposable benchmarks "
        "(1 = serial, 0 = machine-sized default)",
    )
    parser.addoption(
        "--vectorize",
        action="store",
        choices=("auto", "on", "off"),
        default=os.environ.get("FRLFI_BENCH_VECTORIZE", "auto"),
        help="lockstep (vectorized) evaluation of cell groups for the "
        "decomposable benchmarks (payloads are byte-identical either way)",
    )


@pytest.fixture(scope="session")
def campaign_workers(request) -> int:
    workers = request.config.getoption("--workers")
    if workers == 0:
        from repro.runtime.runner import default_worker_count

        return default_worker_count()
    return max(1, workers)


@pytest.fixture(scope="session")
def campaign_vectorize(request) -> str:
    return request.config.getoption("--vectorize")
