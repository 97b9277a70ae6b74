"""``repro-campaign`` — run paper artifacts from the command line.

Examples::

    repro-campaign --list
    repro-campaign fig3a fig4 --scale tiny --workers 4 --output results/
    repro-campaign fig3a --replicates 3 --seed 7   # 3 independent seeds
    repro-campaign fig5a --workers 4 --batch-cells 4 --output results/
    repro-campaign fig5a --workers 4 --output results/ --resume  # after a kill

    # Sharded multi-machine campaign, driven end to end (launch, watch,
    # retry failed shards with --resume, merge) by the orchestrator:
    repro-campaign orchestrate fig6a --shards 4 --workers-per-shard 2 --output results/

    # Under the hood (or by a real scheduler): each machine runs a disjoint
    # shard into a shared store, then any machine merges — byte-identical to
    # a single-machine run.
    repro-campaign fig6a --shard 1/2 --journal-dir /shared/journals   # machine A
    repro-campaign fig6a --shard 2/2 --journal-dir /shared/journals   # machine B
    repro-campaign fig6a --merge-only --journal-dir /shared/journals --output results/

    # Compact every journal + orchestrator report into a queryable sqlite
    # store, then slice it (schemas documented in docs/RESULTS.md):
    repro-campaign ingest /shared/journals
    repro-campaign query slice fig6a --by ber --journal-dir /shared/journals

    # Resident campaign service: one daemon multiplexes many concurrent
    # campaigns (priorities, per-tenant quotas) over one backend roster:
    repro-campaign serve --journal-dir /shared/journals --backend local:4
    repro-campaign submit fig6a --journal-dir /shared/journals --label nightly
    repro-campaign tail nightly --journal-dir /shared/journals
    repro-campaign cancel nightly --journal-dir /shared/journals

Replicate seeds are derived with ``numpy.random.SeedSequence.spawn`` (see
:func:`repro.runtime.cells.derive_cell_seeds`), so adding replicates never
perturbs existing ones.

With ``--output`` (or an explicit ``--journal-dir``), completed cell outputs
stream to a per-artifact JSONL journal as the campaign runs; ``--resume``
skips already-journaled cells after an interruption and produces a payload
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.runtime.cells import derive_cell_seeds
from repro.runtime.plans import plannable_experiment_ids
from repro.runtime.request import (
    SCALE_PRESETS,
    CampaignRequest,
    SettingError,
    check_settings,
    save_result,
)
from repro.runtime.runner import default_worker_count
from repro.runtime.sharding import ShardRunReport, ShardSpec
from repro.runtime.vectorize import VECTORIZE_MODES

#: The arguments several commands share, each declared once: name -> argparse keywords.
_OPTIONS = {
    "--scale": dict(
        choices=sorted(SCALE_PRESETS),
        default="fast",
        help="workload scale preset (default: fast; a submit without --scale "
        "runs at the daemon's --scale)",
    ),
    "--seed": dict(type=int, default=None, help="root seed, overriding the scales' own"),
    "--batch-cells": dict(
        type=int,
        default=1,
        metavar="N",
        help="group up to N cells into one pool submission to amortize "
        "process round-trips (default: 1)",
    ),
    "--vectorize": dict(
        choices=VECTORIZE_MODES,
        default="auto",
        help="cell groups: 'auto' trains consecutive cells as one loop "
        "where a group runner exists, 'on' fails if one is missing, 'off' "
        "runs every cell on its own (its drones still train as lanes); "
        "payloads are byte-identical either way (default: auto)",
    ),
    "--cache-dir": dict(
        type=Path,
        default=None,
        help="policy cache directory shared by plan building, workers and shards "
        "(default: $FRLFI_CACHE_DIR or ./.frlfi_cache)",
    ),
    "--output": dict(
        type=Path,
        default=None,
        help="directory for the per-artifact .json/.txt result files",
    ),
    "--journal-dir": dict(
        type=Path,
        default=None,
        help="journal store for the streaming per-artifact JSONL cell journals, "
        "shard journals and orchestrator reports (default: <output>/journals "
        "when --output is given)",
    ),
    "--workers-per-shard": dict(
        type=int,
        default=1,
        metavar="M",
        help="process-pool size inside each shard subprocess (default: 1)",
    ),
    "--max-retries": dict(
        type=int,
        default=2,
        metavar="R",
        help="retry a failed or stalled shard up to R times, resuming from its "
        "journal with --resume (default: 2)",
    ),
    "--stall-timeout": dict(
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry a shard whose journal shows no new cell for this "
        "many seconds (default: disabled)",
    ),
    "--poll-interval": dict(
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="how often shard journals are polled for progress (default: 0.5)",
    ),
    "--inject-kill-shard": dict(
        type=int,
        default=None,
        metavar="K",
        help="chaos-testing hook: SIGKILL shard K's first attempt once it has "
        "journaled a cell, forcing the retry+--resume path (CI uses this to "
        "prove the merged payload survives a mid-run kill)",
    ),
    "--backend": dict(
        action="append",
        dest="backends",
        default=None,
        metavar="NAME[:SLOTS][,KEY=VALUE...]",
        help="execution backend for shard attempts, repeatable: local[:slots], "
        "ssh[:slots],host=NODE, or slurm[:slots][,bin_dir=DIR][,poll=SECONDS]; "
        "add workers=M to override --workers-per-shard for that backend's "
        "attempts; the scheduler assigns shards by free slots and a retry "
        "prefers a different backend than the one that just failed "
        "(default: one unbounded local backend)",
    ),
    "--store": dict(
        type=Path,
        default=None,
        metavar="FILE",
        help="sqlite store file (ingest default: <first JOURNAL_DIR>/store.sqlite)",
    ),
    "--socket": dict(
        type=Path,
        default=None,
        metavar="PATH",
        help="the daemon's Unix socket (serve default: <journal-dir>/service.sock)",
    ),
    "experiment": dict(help="artifact identifier (e.g. fig6a)"),
    "--dry-run": dict(
        action="store_true",
        help="print what would run (shard->backend assignment and commands, or "
        "the service roster and quotas), then exit without launching anything",
    ),
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """Declare the shared arguments ``names`` (see ``_OPTIONS``) on ``parser``."""
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


_EPILOG = """\
examples:
  repro-campaign --list
  repro-campaign fig3a fig4 --scale tiny --workers 4 --output results/
  repro-campaign fig5a --workers 4 --output results/                # ... killed partway
  repro-campaign fig5a --workers 4 --output results/ --resume       # finish the rest

  # sharded multi-machine campaign, driven end to end (launch, watch, retry
  # failed shards with --resume, merge) by the orchestrator:
  repro-campaign orchestrate fig6a --shards 4 --workers-per-shard 2 --output results/
  repro-campaign orchestrate fig6a --shards 16 --emit-slurm fig6a.sbatch \\
      --journal-dir /shared/journals                                # render, don't run

  # under the hood (or from a real scheduler): one --shard run per machine
  # into a shared journal store, then any machine merges
  repro-campaign fig6a --shard 1/2 --journal-dir /shared/journals   # machine A
  repro-campaign fig6a --shard 2/2 --journal-dir /shared/journals   # machine B
  repro-campaign fig6a --merge-only --journal-dir /shared/journals --output results/

  # compact the journals + orchestrator reports into a queryable sqlite store
  repro-campaign ingest /shared/journals
  repro-campaign query cells fig6a --store /shared/journals/store.sqlite
  repro-campaign query slice fig6a --by ber --format json --store /shared/journals/store.sqlite

  # resident campaign service (daemon + thin clients over a unix socket)
  repro-campaign serve --journal-dir /shared/journals --backend local:4 \\
      --quota alice=2 --resume
  repro-campaign submit fig6a --journal-dir /shared/journals \\
      --label nightly --tenant alice --priority 5 --shards 2
  repro-campaign status --journal-dir /shared/journals
  repro-campaign tail nightly --journal-dir /shared/journals
  repro-campaign cancel nightly --journal-dir /shared/journals

`repro-campaign orchestrate --help` documents the orchestrator's own options;
`repro-campaign ingest --help` and `repro-campaign query --help` document the
result store (schemas in docs/RESULTS.md); `repro-campaign serve --help`
documents the resident campaign service.
"""


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the main (run/shard/merge) command."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Run FRL-FI fault-injection campaigns, optionally on a process "
        "pool; the 'orchestrate' subcommand drives a whole sharded campaign "
        "(launch, watch, retry, merge) from one terminal.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="artifact identifiers (fig3a ... fig9, table1), 'all', or a "
        "subcommand: orchestrate, ingest, query, serve, submit, status, "
        "tail, cancel",
    )
    parser.add_argument("--list", action="store_true", help="list runnable artifacts and exit")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size; 0 picks a machine-sized default "
        f"(currently {default_worker_count()} here); 1 runs serially",
    )
    parser.add_argument(
        "--replicates",
        type=int,
        default=1,
        help="run each artifact N times under independently derived seeds",
    )
    _add_options(
        parser, "--scale", "--seed", "--batch-cells", "--vectorize", "--output", "--journal-dir"
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already recorded in the journal of a previous "
        "(interrupted) run of the same campaign, e.g.: repro-campaign fig5a "
        "--output results/ --resume",
    )
    parser.add_argument(
        "--shard",
        metavar="K/N",
        default=None,
        help="run only shard K of an N-way strided partition of each "
        "artifact's cells, journaling to <label>.shard-K-of-N.jsonl; shard "
        "runs never merge (use --merge-only once every shard has run), "
        "e.g.: repro-campaign fig6a --shard 1/2 --journal-dir /shared/journals",
    )
    parser.add_argument(
        "--merge-only",
        action="store_true",
        help="merge previously journaled shard runs into the final payload "
        "without executing any cell; fails loudly if any shard or cell is "
        "missing or any journal does not match the plan, e.g.: repro-campaign "
        "fig6a --merge-only --journal-dir /shared/journals --output results/",
    )
    _add_options(parser, "--cache-dir")
    return parser


_ORCHESTRATE_EPILOG = """\
examples:
  # 4 concurrent shard subprocesses, 2 pool workers each, retry a failed or
  # stalled shard (resuming from its journal) up to 2 times, then merge:
  repro-campaign orchestrate fig6a --shards 4 --workers-per-shard 2 --output results/

  # mixed execution backends with capacity-aware scheduling: 2 shard slots on
  # this machine, 4 over ssh, 16 as Slurm jobs; a failed shard retries on a
  # *different* backend (--resume keeps its journaled cells either way):
  repro-campaign orchestrate fig6a --shards 22 --journal-dir /shared/journals \\
      --backend local:2 --backend ssh:4,host=node7 --backend slurm:16

  # print the shard->backend assignment and exact commands, launch nothing:
  repro-campaign orchestrate fig6a --shards 4 --journal-dir /shared/journals \\
      --backend local:1 --backend slurm:3 --dry-run

  # don't run locally — render ready-to-submit cluster templates instead:
  repro-campaign orchestrate fig6a --shards 16 --journal-dir /shared/journals \\
      --emit-slurm fig6a.sbatch --emit-k8s fig6a.yaml

The merged payload is byte-identical to an unsharded single-machine run; the
per-shard attempt log (including which backend ran each attempt) lands in
<journal-dir>/<label>.orchestrator.json.
"""


def build_orchestrate_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``orchestrate`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign orchestrate",
        description="Drive a whole sharded campaign from one terminal: launch "
        "each --shard k/n run as a subprocess, tail the shard journals for "
        "live progress, retry failed or stalled shards with --resume, and "
        "merge the shard journals into the final payload.",
        epilog=_ORCHESTRATE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_options(parser, "experiment")
    parser.add_argument(
        "--shards",
        type=int,
        required=True,
        metavar="N",
        help="number of --shard k/N subprocesses to run (all concurrently)",
    )
    _add_options(
        parser,
        "--workers-per-shard",
        "--batch-cells",
        "--vectorize",
        "--max-retries",
        "--stall-timeout",
        "--poll-interval",
        "--scale",
        "--seed",
        "--cache-dir",
        "--output",
        "--journal-dir",
    )
    parser.add_argument(
        "--emit-slurm",
        type=Path,
        default=None,
        metavar="FILE",
        help="instead of running locally, write a ready-to-submit Slurm "
        "array-job script for the sharded campaign to FILE and exit",
    )
    parser.add_argument(
        "--emit-k8s",
        type=Path,
        default=None,
        metavar="FILE",
        help="instead of running locally, write a ready-to-submit Kubernetes "
        "indexed-Job manifest for the sharded campaign to FILE and exit",
    )
    _add_options(parser, "--inject-kill-shard", "--backend", "--dry-run")
    return parser


_QUERY_EPILOG = """\
canned queries:
  campaigns             every ingested campaign with its cell coverage
  cells LABEL           per-cell outcomes of one campaign, in plan order
  slice LABEL [--by C]  outcome statistics grouped by one key coordinate
                        (default: ber — the failure-rate-vs-BER slices)
  attempts [LABEL]      every orchestrator shard attempt, in order
  timings [LABEL]       per-backend attempt counts, success rates and durations

examples:
  repro-campaign ingest /shared/journals
  repro-campaign query campaigns --store /shared/journals/store.sqlite
  repro-campaign query cells fig6a --journal-dir /shared/journals --format ndjson
  repro-campaign query slice fig6a --by ber --journal-dir /shared/journals
  repro-campaign query timings --journal-dir /shared/journals
  repro-campaign query --sql "SELECT COUNT(*) FROM cells" --journal-dir /shared/journals

Schemas and more worked examples: docs/RESULTS.md.
"""


def build_ingest_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``ingest`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign ingest",
        description="Compact a journal directory's merged journals, shard "
        "journals and orchestrator reports into a schema-versioned sqlite "
        "store. Incremental and idempotent: unchanged files are skipped, so "
        "re-running over the same directory inserts zero rows.",
        epilog="Schemas: docs/RESULTS.md.",
    )
    parser.add_argument(
        "journal_dirs",
        nargs="+",
        type=Path,
        metavar="JOURNAL_DIR",
        help="journal director(ies) to ingest",
    )
    _add_options(parser, "--store")
    return parser


def build_query_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``query`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign query",
        description="Query an ingested result store: canned queries over "
        "campaigns, cells, slices, attempts and backend timings, or raw SQL "
        "with --sql.",
        epilog=_QUERY_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "what",
        nargs="*",
        metavar="QUERY [LABEL]",
        help="canned query name plus its arguments (see below), or nothing "
        "with --sql",
    )
    _add_options(parser, "--store")
    parser.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="shorthand for --store DIR/store.sqlite",
    )
    parser.add_argument(
        "--by",
        default="ber",
        metavar="COORD",
        help="cell-key coordinate for 'slice' grouping (default: ber)",
    )
    parser.add_argument(
        "--fingerprint",
        default=None,
        metavar="PREFIX",
        help="pin 'cells'/'slice' to the campaign whose plan fingerprint "
        "starts with PREFIX (default: the newest campaign for the label)",
    )
    parser.add_argument(
        "--sql",
        default=None,
        metavar="SQL",
        help="raw SQL escape hatch, instead of a canned query",
    )
    parser.add_argument(
        "--format",
        choices=("table", "json", "ndjson"),
        default="table",
        help="output format (default: table)",
    )
    return parser


def _ingest_main(argv: Sequence[str]) -> int:
    """Entry point for ``repro-campaign ingest ...``."""
    from repro.runtime.store import ResultStore, StoreError

    parser = build_ingest_parser()
    args = parser.parse_args(argv)
    store_path = args.store
    if store_path is None:
        store_path = args.journal_dirs[0] / "store.sqlite"
    try:
        with ResultStore(store_path) as store:
            for journal_dir in args.journal_dirs:
                report = store.ingest(journal_dir)
                print(f"[ingest] {journal_dir}: {report.render()}", flush=True)
    except StoreError as error:
        print(f"[ingest] FAILED — {error}", file=sys.stderr, flush=True)
        return 1
    print(f"[ingest] store: {store_path}", flush=True)
    return 0


def _query_main(argv: Sequence[str]) -> int:
    """Entry point for ``repro-campaign query ...``."""
    from repro.runtime.store import ResultStore, StoreError, format_rows

    parser = build_query_parser()
    args = parser.parse_args(argv)
    store_path = args.store
    if store_path is None and args.journal_dir is not None:
        store_path = args.journal_dir / "store.sqlite"
    if store_path is None:
        parser.error("give --store FILE or --journal-dir DIR")
    if not store_path.exists():
        parser.error(f"no store at {store_path} (run 'repro-campaign ingest' first)")
    if args.sql is not None and args.what:
        parser.error("--sql replaces the canned query; give one or the other")
    if args.sql is None and not args.what:
        parser.error(
            "give a canned query (campaigns, cells LABEL, slice LABEL, "
            "attempts [LABEL], timings [LABEL]) or --sql"
        )
    try:
        with ResultStore(store_path) as store:
            if args.sql is not None:
                columns, rows = store.sql(args.sql)
            else:
                columns, rows = _run_canned_query(parser, store, args)
            print(format_rows(columns, rows, args.format), flush=True)
    except StoreError as error:
        print(f"[query] FAILED — {error}", file=sys.stderr, flush=True)
        return 1
    return 0


def _run_canned_query(parser, store, args):
    """Dispatch ``args.what`` to the store's canned query methods."""
    name, rest = args.what[0], args.what[1:]
    if name == "campaigns":
        if rest:
            parser.error("'campaigns' takes no arguments")
        return store.query_campaigns()
    if name in ("cells", "slice"):
        if len(rest) != 1:
            parser.error(f"'{name}' needs exactly one LABEL argument")
        if name == "cells":
            return store.query_cells(rest[0], fingerprint=args.fingerprint)
        return store.query_slice(rest[0], coordinate=args.by, fingerprint=args.fingerprint)
    if name in ("attempts", "timings"):
        if len(rest) > 1:
            parser.error(f"'{name}' takes at most one LABEL argument")
        label = rest[0] if rest else None
        if name == "attempts":
            return store.query_attempts(label)
        return store.query_timings(label)
    parser.error(
        f"unknown query {name!r}; use campaigns, cells LABEL, slice LABEL, "
        "attempts [LABEL], timings [LABEL], or --sql"
    )


_SERVE_EPILOG = """\
examples:
  # daemonize a shared roster: 4 local shard slots + a Slurm partition, with
  # per-tenant concurrency quotas and crash-safe re-adoption of campaigns
  # that were in flight when the previous daemon died:
  repro-campaign serve --journal-dir /shared/journals \\
      --backend local:4 --backend slurm:16 \\
      --quota alice=2 --quota bob=2 --default-quota 4 --resume

  # print the resolved roster and quota table, bind nothing:
  repro-campaign serve --journal-dir /shared/journals --backend local:2 --dry-run

Submissions journal into <journal-dir>/<label>/ and the merged payload lands
there as <artifact>.json/.txt — byte-identical to a one-shot run of the same
artifact.  The daemon's own submission/state journal is
<journal-dir>/service.campaigns.jsonl (records documented in docs/RESULTS.md).
"""


def build_serve_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign serve",
        description="Run the resident campaign service: accept campaign "
        "submissions over a Unix socket, multiplex them over one shared "
        "backend roster through a priority queue with per-tenant quotas, "
        "stream live progress, and survive restarts via the journal store.",
        epilog=_SERVE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--journal-dir",
        type=Path,
        required=True,
        help="shared journal store: per-campaign journals, merged payloads, "
        "and the service's own submission/state journal live here",
    )
    _add_options(parser, "--socket")
    parser.add_argument(
        "--quota",
        action="append",
        dest="quotas",
        default=None,
        metavar="TENANT=N",
        help="cap TENANT at N concurrently running shard attempts, repeatable",
    )
    parser.add_argument(
        "--default-quota",
        type=int,
        default=None,
        metavar="N",
        help="concurrency cap for tenants without an explicit --quota "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="re-adopt campaigns that were submitted but unfinished when the "
        "previous daemon stopped; their orchestrators resume from the shard "
        "journals, recomputing no completed cell",
    )
    parser.add_argument(
        "--ingest",
        action="store_true",
        help="after each merge, ingest the campaign's journals into "
        "<journal-dir>/store.sqlite (the queryable result store)",
    )
    _add_options(
        parser,
        "--backend",
        "--scale",
        "--cache-dir",
        "--max-retries",
        "--stall-timeout",
        "--poll-interval",
        "--inject-kill-shard",
        "--dry-run",
    )
    return parser


def _add_client_socket_arguments(parser: argparse.ArgumentParser) -> None:
    """The two ways every client command can name the daemon's socket."""
    _add_options(parser, "--socket")
    parser.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="shorthand for --socket DIR/service.sock",
    )


def build_submit_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``submit`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign submit",
        description="Submit one campaign to a running campaign service "
        "(see 'repro-campaign serve').  Returns immediately with the "
        "campaign id; follow progress with 'repro-campaign tail LABEL'.",
    )
    _add_options(parser, "experiment")
    _add_client_socket_arguments(parser)
    parser.add_argument(
        "--label",
        default=None,
        help="campaign label, also its journal subdirectory name "
        "(default: the artifact id); a label already in flight is refused",
    )
    parser.add_argument("--tenant", default="default", help="tenant the quota applies to")
    parser.add_argument(
        "--priority",
        type=int,
        default=0,
        help="dispatch priority (higher dispatches first; default: 0)",
    )
    parser.add_argument(
        "--shards", type=int, default=2, metavar="N", help="shard count (default: 2)"
    )
    _add_options(parser, "--scale", "--seed", "--workers-per-shard", "--batch-cells", "--vectorize")
    parser.set_defaults(scale=None)  # None: the daemon's --scale
    return parser


def build_status_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``status`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign status",
        description="Show a running campaign service's campaigns (no "
        "argument), or one campaign's full status (by label or id).",
    )
    parser.add_argument(
        "target", nargs="?", default=None, help="campaign label or id (optional)"
    )
    _add_client_socket_arguments(parser)
    return parser


def build_tail_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``tail`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign tail",
        description="Stream one campaign's live per-shard progress from a "
        "running campaign service as NDJSON, until it reaches a terminal "
        "state.  Exit code 0 iff the campaign merged.",
    )
    parser.add_argument("target", help="campaign label or id")
    _add_client_socket_arguments(parser)
    return parser


def build_cancel_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``cancel`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign cancel",
        description="Cancel an in-flight campaign: the daemon group-kills "
        "its running shard attempts and journals the cancellation (the shard "
        "journals keep every completed cell for a later resume).",
    )
    parser.add_argument("target", help="campaign label or id")
    _add_client_socket_arguments(parser)
    return parser


def _resolve_client_socket(parser: argparse.ArgumentParser, args) -> Path:
    """The daemon socket a client command should talk to."""
    if args.socket is not None:
        return args.socket
    if args.journal_dir is not None:
        return args.journal_dir / "service.sock"
    parser.error("give --socket PATH or --journal-dir DIR")


def _parse_quotas(parser: argparse.ArgumentParser, texts) -> dict:
    """Parse repeated ``--quota TENANT=N`` options."""
    quotas = {}
    for text in texts or []:
        tenant, separator, value = str(text).partition("=")
        if not separator or not tenant.strip() or not value.strip():
            parser.error(f"--quota must be TENANT=N, got {text!r}")
        try:
            quotas[tenant.strip()] = int(value)
        except ValueError:
            parser.error(f"--quota {text!r}: N must be an integer")
    return quotas


def _backends(parser: argparse.ArgumentParser, args) -> list:
    """The ``--backend`` roster (default: one unbounded local backend)."""
    from repro.runtime.backends import BackendError, build_backends

    try:
        return build_backends(args.backends or ["local"])
    except BackendError as error:
        parser.error(f"invalid --backend: {error}")


def _journal_dir(args) -> Optional[Path]:
    """``--journal-dir``, defaulting to ``<output>/journals`` when ``--output`` is given."""
    if args.journal_dir is None and args.output is not None:
        return args.output / "journals"
    return args.journal_dir


def _serve_main(argv: Sequence[str]) -> int:
    """Entry point for ``repro-campaign serve ...``."""
    import asyncio

    from repro.runtime.service import CampaignService
    from repro.runtime.service_api import ServiceAPI
    from repro.runtime.service_queue import QuotaError

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    quotas = _parse_quotas(parser, args.quotas)
    backends = _backends(parser, args)
    socket_path = args.socket if args.socket is not None else args.journal_dir / "service.sock"
    try:
        service = CampaignService(
            args.journal_dir,
            backends=backends,
            quotas=quotas,
            default_quota=args.default_quota,
            scale=args.scale,
            cache_dir=args.cache_dir,
            max_retries=args.max_retries,
            stall_timeout=args.stall_timeout,
            poll_interval=args.poll_interval,
            resume=args.resume,
            inject_kill_shard=args.inject_kill_shard,
            ingest_on_completion=args.ingest,
            on_event=lambda message: print(f"[serve] {message}", flush=True),
        )
    except (SettingError, QuotaError) as error:
        parser.error(error.usage)
    if args.dry_run:
        print(f"campaign service (dry run)\nsocket: {socket_path}", flush=True)
        print(service.render_dry_run(), flush=True)
        return 0

    async def _serve() -> int:
        await service.start()
        api = ServiceAPI(service, socket_path)
        await api.start()
        print(f"[serve] listening on {socket_path}", flush=True)
        try:
            await api.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await api.close()
            await service.close()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("[serve] stopped", flush=True)
        return 0


def _client_main(argv: Sequence[str], parser_builder, handler) -> int:
    """Shared driver for the thin client commands (connect, call, render)."""
    from repro.runtime.service_api import ServiceClient, ServiceClientError

    parser = parser_builder()
    args = parser.parse_args(argv)
    client = ServiceClient(_resolve_client_socket(parser, args))
    try:
        return handler(client, args)
    except (ServiceClientError, ConnectionError, OSError, TimeoutError) as error:
        print(f"[{parser.prog.split()[-1]}] FAILED — {error}", file=sys.stderr, flush=True)
        return 1


def _submit_main(argv: Sequence[str]) -> int:
    """Entry point for ``repro-campaign submit ...``."""
    from repro.runtime.service import CampaignSpec

    def handler(client, args) -> int:
        spec = CampaignSpec(
            args.experiment,
            label=args.label or None,
            tenant=args.tenant,
            priority=args.priority,
            shards=args.shards,
            scale=args.scale,
            seed=args.seed,
            workers_per_shard=args.workers_per_shard,
            batch_cells=args.batch_cells,
            vectorize=args.vectorize,
        )
        status = client.submit(spec.as_dict())
        print(
            f"[submit] {status['id']} {status['label']}: {status['state']} "
            f"(tenant {status['tenant']}, priority {status['priority']})",
            flush=True,
        )
        return 0

    return _client_main(argv, build_submit_parser, handler)


def _status_main(argv: Sequence[str]) -> int:
    """Entry point for ``repro-campaign status ...``."""
    import json as json_module

    def handler(client, args) -> int:
        if args.target is None:
            campaigns = client.campaigns()
            if not campaigns:
                print("[status] no campaigns", flush=True)
                return 0
            for status in campaigns:
                shards = status.get("shards") or {}
                cells = sum(shards.values())
                print(
                    f"{status['id']}  {status['label']:20s} {status['state']:10s} "
                    f"tenant={status['tenant']} priority={status['priority']} "
                    f"cells={cells}",
                    flush=True,
                )
            return 0
        print(json_module.dumps(client.status(args.target), indent=2, sort_keys=True), flush=True)
        return 0

    return _client_main(argv, build_status_parser, handler)


def _tail_main(argv: Sequence[str]) -> int:
    """Entry point for ``repro-campaign tail ...``."""
    import json as json_module

    def handler(client, args) -> int:
        final_state = None
        for event in client.tail(args.target):
            print(json_module.dumps(event, sort_keys=True), flush=True)
            if event.get("event") == "state":
                final_state = event.get("state")
        return 0 if final_state == "merged" else 1

    return _client_main(argv, build_tail_parser, handler)


def _cancel_main(argv: Sequence[str]) -> int:
    """Entry point for ``repro-campaign cancel ...``."""

    def handler(client, args) -> int:
        status = client.cancel(args.target)
        shards = status.get("shards") or {}
        print(
            f"[cancel] {status['id']} {status['label']}: {status['state']} — "
            f"{sum(shards.values())} journaled cell(s) kept for a future resume",
            flush=True,
        )
        return 0

    return _client_main(argv, build_cancel_parser, handler)


def request_from_args(args, experiment_id: str, workers: int) -> CampaignRequest:
    """The campaign request parsed one-shot or ``orchestrate`` options describe.

    A shard subprocess parses the ``to_argv()`` options its launcher forwards
    back into an equal request, so it builds the launcher's plan.
    """
    return CampaignRequest(
        experiment_id,
        scale=args.scale,
        seed=args.seed,
        workers=workers,
        batch_cells=args.batch_cells,
        vectorize=args.vectorize,
        cache_dir=args.cache_dir,
    )


def _orchestrate_main(argv: Sequence[str]) -> int:
    """Entry point for ``repro-campaign orchestrate ...``."""
    from repro.runtime.orchestrator import (
        OrchestratorError,
        ShardOrchestrator,
        render_k8s_manifest,
        render_slurm_script,
    )

    parser = build_orchestrate_parser()
    args = parser.parse_args(argv)
    if args.dry_run and (args.emit_slurm is not None or args.emit_k8s is not None):
        parser.error(
            "--dry-run and --emit-slurm/--emit-k8s are mutually exclusive: "
            "a dry run writes nothing, template emission writes files"
        )
    backends = _backends(parser, args)
    journal_dir = _journal_dir(args)
    if journal_dir is None:
        parser.error(
            "orchestration needs the shared journal store "
            "(give --journal-dir or --output)"
        )
    request = request_from_args(args, args.experiment, args.workers_per_shard)
    try:
        check_settings(workers_per_shard=args.workers_per_shard)
        # Building the orchestrator builds no plan (so trains no baselines)
        # and touches no disk, which keeps --dry-run and template emission
        # cheap and offline.
        orchestrator = ShardOrchestrator(
            args.experiment,
            args.shards,
            request.validate().runner(journal_dir=journal_dir),
            backends=backends,
            shard_args=request.to_argv(),
            max_retries=args.max_retries,
            stall_timeout=args.stall_timeout,
            poll_interval=args.poll_interval,
            inject_kill_shard=args.inject_kill_shard,
            on_event=lambda message: print(f"[orchestrate] {message}", flush=True),
        )
    except SettingError as error:
        parser.error(error.usage)
    if args.inject_kill_shard is not None and not 1 <= args.inject_kill_shard <= args.shards:
        parser.error(
            f"--inject-kill-shard must name a shard in 1..{args.shards}, "
            f"got {args.inject_kill_shard}"
        )

    if args.dry_run:
        # Resolves backend specs, previews the scheduler's assignment, and
        # prints the exact argv each shard would launch.
        print(orchestrator.render_dry_run(), flush=True)
        return 0

    if args.emit_slurm is not None or args.emit_k8s is not None:
        # Template emission renders the commands a real scheduler would run
        # (clusters render at paper scale without paying for baseline
        # training on the submit host).
        template_kwargs = dict(
            journal_dir=journal_dir,
            workers_per_shard=args.workers_per_shard,
            shard_args=request.to_argv(workers=False),
        )
        for path, renderer, kind in (
            (args.emit_slurm, render_slurm_script, "Slurm array job"),
            (args.emit_k8s, render_k8s_manifest, "Kubernetes indexed Job"),
        ):
            if path is None:
                continue
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                renderer(args.experiment, args.shards, **template_kwargs),
                encoding="utf8",
            )
            print(f"[repro-campaign] wrote {kind} template to {path}", flush=True)
        return 0

    start = time.perf_counter()
    try:
        report = orchestrator.run()
    except KeyboardInterrupt:
        raise
    except OrchestratorError as error:
        print(f"[orchestrate] FAILED — {error}", file=sys.stderr, flush=True)
        if error.report is not None:
            print(error.report.render(), file=sys.stderr, flush=True)
        return 1
    except Exception as error:
        print(f"[orchestrate] FAILED — {error}", file=sys.stderr, flush=True)
        return 1
    elapsed = time.perf_counter() - start
    print(report.render(), flush=True)
    print(f"[orchestrate] {args.experiment}: done in {elapsed:.1f}s", flush=True)
    if args.output is not None and report.result is not None:
        save_result(args.output, args.experiment, report.result)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the ``repro-campaign`` CLI; returns the process exit code."""
    arguments = list(argv) if argv is not None else sys.argv[1:]
    # Journal-invalidation warnings (stale fingerprints, shard mismatches)
    # come through the logging module; make them visible on stderr.
    logging.basicConfig(
        level=logging.WARNING, format="[repro-campaign] %(levelname)s: %(message)s"
    )
    subcommands = {
        "orchestrate": _orchestrate_main,
        "ingest": _ingest_main,
        "query": _query_main,
        "serve": _serve_main,
        "submit": _submit_main,
        "status": _status_main,
        "tail": _tail_main,
        "cancel": _cancel_main,
    }
    if arguments and arguments[0] in subcommands:
        return subcommands[arguments[0]](arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)

    if args.list:
        for experiment_id in plannable_experiment_ids():
            print(experiment_id)
        return 0

    if not args.experiments:
        parser.error("no experiments given (or use --list)")
    # The runner a request builds does not depend on its experiment id, so
    # one request (per replicate seed) runs every requested artifact.
    request = request_from_args(args, args.experiments[0], args.workers)
    try:
        request.validate()
    except SettingError as error:
        parser.error(error.usage)
    if args.replicates < 1:
        parser.error("--replicates must be >= 1")
    shard = None
    if args.shard is not None:
        if args.merge_only:
            parser.error(
                "--shard and --merge-only are mutually exclusive: shards run cells, "
                "merge-only folds finished shard journals together"
            )
        try:
            shard = ShardSpec.parse(args.shard)
        except ValueError as error:
            parser.error(f"invalid --shard: {error}")
    journal_dir = _journal_dir(args)
    if args.resume and journal_dir is None:
        parser.error("--resume needs a journal (give --journal-dir or --output)")
    if (shard is not None or args.merge_only) and journal_dir is None:
        parser.error(
            "--shard/--merge-only need the shared journal store "
            "(give --journal-dir or --output)"
        )
    if (shard is not None or args.merge_only) and args.replicates > 1 and args.seed is None:
        # Replicate seeds derive from OS entropy when no root seed is given,
        # so every machine (and the merging run) would build a different plan
        # and the shard journals could never fingerprint-match.
        parser.error(
            "--shard/--merge-only with --replicates > 1 needs an explicit --seed "
            "so every machine derives the same replicate plans"
        )

    known = plannable_experiment_ids()
    if args.experiments == ["all"]:
        experiment_ids = known
    else:
        experiment_ids = args.experiments
        unknown = sorted(set(experiment_ids) - set(known))
        if unknown:
            parser.error(f"unknown experiments {unknown}; available: {known}")

    base_seed = args.seed
    replicate_seeds = (
        derive_cell_seeds(base_seed, args.replicates) if args.replicates > 1 else [base_seed]
    )

    exit_code = 0
    for replicate, seed in enumerate(replicate_seeds):
        runner = replace(request, seed=seed).runner(
            journal_dir=journal_dir, resume=args.resume, shard=shard
        )
        suffix = f"@r{replicate}" if args.replicates > 1 else ""
        if args.replicates > 1:
            # Record the derived seed so any single replicate can be rerun
            # exactly with --replicates 1 --seed <seed>.
            print(f"[repro-campaign] replicate {replicate}: seed={seed}", flush=True)
        for experiment_id in experiment_ids:
            label = f"{experiment_id}{suffix}"
            start = time.perf_counter()
            try:
                # Plan building can fail too (corrupt cache entries, baseline
                # training errors), so it sits inside the per-artifact guard.
                plan = runner.plan(experiment_id)
                if args.merge_only:
                    print(
                        f"[repro-campaign] {label}: merging shard journals "
                        f"({plan.cell_count} cells, no execution)...",
                        flush=True,
                    )
                    result = runner.merge_shards(plan, name=label)
                else:
                    # Journals are per label, so each replicate resumes its own.
                    journal = runner.journal_for(plan, name=label)
                    journaled = len(journal.load()) if journal is not None and args.resume else 0
                    if shard is not None:
                        assigned = len(shard.cell_indices(plan.cell_count))
                        progress = (
                            f"shard {shard.describe()}: {assigned}/{plan.cell_count} "
                            f"cells on {runner.workers} worker(s)"
                        )
                    else:
                        progress = f"{plan.cell_count} cells on {runner.workers} worker(s)"
                    if args.batch_cells > 1:
                        progress += f", batches of {args.batch_cells}"
                    if journaled:
                        progress += f", {journaled} already journaled"
                    print(f"[repro-campaign] {label}: {progress}...", flush=True)
                    result = runner.run_plan(plan, journal=journal)
            except KeyboardInterrupt:
                raise
            except Exception as error:
                # Keep going so a multi-artifact run reports every failure.
                print(f"[repro-campaign] {label}: FAILED — {error}", file=sys.stderr, flush=True)
                exit_code = 1
                continue
            elapsed = time.perf_counter() - start
            if isinstance(result, ShardRunReport):
                # A shard run has no merged payload to store or save — its
                # deliverable is the shard journal.
                print(f"[repro-campaign] {label}: {result.render()}", flush=True)
                print(f"[repro-campaign] {label}: done in {elapsed:.1f}s", flush=True)
                continue
            runner.results[experiment_id] = result
            print(f"[repro-campaign] {label}: done in {elapsed:.1f}s", flush=True)
            if args.output is not None:
                save_result(args.output, label, result)
        print(runner.report())
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
