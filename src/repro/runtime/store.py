"""Queryable result store: sqlite compaction of journals and reports.

Campaign truth lives in three kinds of loose files, each built for a
different job: per-label JSONL journals (resume + the multi-machine wire
format), ``<label>.shard-k-of-n.jsonl`` shard journals, and
``<label>.orchestrator.json`` attempt reports.  None of them is built for
*analysis* — every cross-campaign question (failure rate vs BER across runs,
per-backend timing regressions, retry rates) used to mean an ad-hoc script
over a journal directory.  :class:`ResultStore` is the compaction step: it
incrementally ingests those files into one schema-versioned sqlite database
that ``repro-campaign query`` (and raw SQL) can slice.

Design rules, in order:

* **Ingest is idempotent and incremental.**  Every ingested file is recorded
  in the ``sources`` table keyed by absolute path with its mtime/size; a file
  that has not changed is skipped entirely, so re-running ``ingest`` over the
  same journal directory inserts zero rows.  A file that *has* changed (a
  resumed shard journal that grew) replaces exactly its own rows.
* **The journal layer's tolerance carries over.**  A truncated or corrupt
  trailing journal line — the signature of a mid-write kill — is discarded
  exactly as :meth:`repro.runtime.journal.CampaignJournal.load` discards it;
  everything before it is ingested.
* **Mixed fingerprints are refused loudly.**  Two journal files for the same
  label in one directory with different plan fingerprints (a merged journal
  beside stale shard journals from an older grid, say) abort the ingest with
  a :class:`StoreError` naming the offending files — the store never blends
  cells from two different plans under one campaign.
* **Provenance survives compaction.**  Campaign rows carry the journal's
  ``fingerprint`` and ``fingerprint_version``; cell rows carry their source
  file and shard coordinates; attempt rows carry the backend that ran them.

The on-disk schema is versioned (:data:`SCHEMA_VERSION` in ``store_meta``):
opening a store written under a different schema fails loudly instead of
misreading rows.  See ``docs/RESULTS.md`` for the full schema and worked
query examples.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.journal import journal_records, stale_version_reason
from repro.runtime.sharding import parse_shard_journal_name

logger = logging.getLogger(__name__)

#: Version of the sqlite schema below.  Bump on any table/column change so a
#: store written by an older build is refused instead of misread.
SCHEMA_VERSION = 1

#: Suffix of orchestrator attempt reports in a journal directory.
_REPORT_SUFFIX = ".orchestrator.json"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sources (
    source_id   INTEGER PRIMARY KEY,
    path        TEXT NOT NULL UNIQUE,
    kind        TEXT NOT NULL CHECK (kind IN ('journal', 'shard-journal', 'report')),
    mtime_ns    INTEGER NOT NULL,
    size_bytes  INTEGER NOT NULL,
    ingested_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id         INTEGER PRIMARY KEY,
    label               TEXT NOT NULL,
    experiment_id       TEXT NOT NULL,
    fingerprint         TEXT NOT NULL,
    fingerprint_version INTEGER NOT NULL,
    cell_count          INTEGER NOT NULL,
    UNIQUE (label, fingerprint)
);
CREATE TABLE IF NOT EXISTS cells (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(campaign_id),
    source_id   INTEGER NOT NULL REFERENCES sources(source_id),
    cell_index  INTEGER NOT NULL,
    cell_key    TEXT NOT NULL,
    output      TEXT NOT NULL,
    shard_index INTEGER,
    shard_count INTEGER,
    PRIMARY KEY (campaign_id, source_id, cell_index)
);
CREATE INDEX IF NOT EXISTS cells_by_campaign ON cells (campaign_id, cell_index);
CREATE TABLE IF NOT EXISTS reports (
    report_id        INTEGER PRIMARY KEY,
    source_id        INTEGER NOT NULL UNIQUE REFERENCES sources(source_id),
    label            TEXT NOT NULL,
    experiment_id    TEXT NOT NULL,
    shard_count      INTEGER NOT NULL,
    cell_count       INTEGER NOT NULL,
    max_retries      INTEGER NOT NULL,
    merged           INTEGER NOT NULL,
    duration_seconds REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS backends (
    report_id   INTEGER NOT NULL REFERENCES reports(report_id),
    position    INTEGER NOT NULL,
    description TEXT NOT NULL,
    PRIMARY KEY (report_id, position)
);
CREATE TABLE IF NOT EXISTS attempts (
    report_id        INTEGER NOT NULL REFERENCES reports(report_id),
    shard            TEXT NOT NULL,
    attempt          INTEGER NOT NULL,
    backend          TEXT,
    returncode       INTEGER,
    duration_seconds REAL NOT NULL,
    cells_completed  INTEGER NOT NULL,
    resumed          INTEGER NOT NULL,
    reason           TEXT,
    succeeded        INTEGER NOT NULL,
    PRIMARY KEY (report_id, shard, attempt)
);
"""


class StoreError(RuntimeError):
    """The store could not ingest a file, or a query cannot be answered."""


def read_journal_records(path) -> Tuple[Optional[dict], List[dict]]:
    """The header and cell records of one journal file, tail-tolerantly.

    Reads through :func:`repro.runtime.journal.journal_records`, the same
    line rule :meth:`repro.runtime.journal.CampaignJournal.load` uses, but
    without requiring a plan; malformed cell records end the scan rather
    than poisoning the store.  Returns ``(None, [])`` for a file with no
    readable header (empty, or the header line itself is the partial write)
    — the caller skips such files and retries on a later ingest.
    """
    records = journal_records(path)
    header, _ = next(records, (None, 0))
    if not isinstance(header, dict) or header.get("kind") != "header":
        return None, []
    cells: List[dict] = []
    for record, _ in records:
        if not isinstance(record, dict) or record.get("kind") != "cell":
            break
        if not isinstance(record.get("index"), int) or "output" not in record:
            break
        cells.append(record)
    return header, cells


@dataclass
class IngestReport:
    """What one :meth:`ResultStore.ingest` pass did, for humans and asserts."""

    scanned: int = 0
    skipped: int = 0
    ingested: List[str] = field(default_factory=list)
    campaigns_added: int = 0
    cells_added: int = 0
    attempts_added: int = 0
    warnings: List[str] = field(default_factory=list)

    @property
    def rows_added(self) -> int:
        """Total new cell + attempt rows (zero on an idempotent re-ingest)."""
        return self.cells_added + self.attempts_added

    def render(self) -> str:
        """One-paragraph human-readable ingest summary."""
        lines = [
            f"scanned {self.scanned} file(s): {len(self.ingested)} ingested, "
            f"{self.skipped} unchanged (skipped); "
            f"+{self.campaigns_added} campaign(s), +{self.cells_added} cell row(s), "
            f"+{self.attempts_added} attempt row(s)"
        ]
        for path in self.ingested:
            lines.append(f"  ingested {path}")
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        return "\n".join(lines)


def _numeric_leaves(value) -> List[float]:
    """Every int/float leaf in a JSON-decoded cell output, in order."""
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, list):
        return [leaf for item in value for leaf in _numeric_leaves(item)]
    if isinstance(value, dict):
        return [leaf for item in value.values() for leaf in _numeric_leaves(item)]
    return []


def _key_coordinate(key, coordinate: str):
    """The value following ``coordinate`` in a cell key, or ``None``.

    Cell keys are name/value sequences (``["drones", 2, "location",
    "server", "ber", 0]``), so the coordinate's value is the element right
    after its name.
    """
    if not isinstance(key, list):
        return None
    for position in range(len(key) - 1):
        if key[position] == coordinate:
            return key[position + 1]
    return None


class ResultStore:
    """One sqlite database of compacted campaign results and attempt reports.

    Usable as a context manager; :meth:`ingest` folds a journal directory in,
    the ``query_*`` methods answer the canned CLI queries, and :meth:`sql`
    is the raw escape hatch.  All query methods return ``(columns, rows)``
    with JSON columns already decoded, so callers (CLI formatting, tests)
    never re-parse.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._connection = sqlite3.connect(self.path)
        self._connection.row_factory = sqlite3.Row
        self._init_schema()

    def _init_schema(self) -> None:
        """Create the schema on a fresh store; verify the version on an old one."""
        with self._connection:
            self._connection.executescript(_SCHEMA)
            row = self._connection.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._connection.execute(
                    "INSERT INTO store_meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            elif row["value"] != str(SCHEMA_VERSION):
                raise StoreError(
                    f"store {self.path} has schema version {row['value']}, but this "
                    f"build reads version {SCHEMA_VERSION}; re-ingest into a fresh "
                    "store file"
                )

    def close(self) -> None:
        """Close the underlying sqlite connection (idempotent)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ResultStore":
        """Context-manager entry: the store itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    # ---------------------------------------------------------------- ingest
    def ingest(self, journal_dir) -> IngestReport:
        """Fold one journal directory's files into the store, incrementally.

        Scans the directory's top level for merged journals (``<label>.jsonl``),
        shard journals (``<label>.shard-k-of-n.jsonl``) and orchestrator
        reports (``<label>.orchestrator.json``).  Unchanged files (same
        mtime and size as their ``sources`` row) are skipped — a re-ingest
        of an untouched directory inserts zero rows; changed files replace
        exactly their own rows.  Journals whose labels carry mixed plan
        fingerprints abort with :class:`StoreError` naming the files;
        journals without a readable header (or with a non-current
        ``fingerprint_version``) are skipped with a warning, mirroring the
        journal layer's own stale-journal reporting.
        """
        journal_dir = Path(journal_dir)
        if not journal_dir.is_dir():
            raise StoreError(f"journal directory {journal_dir} does not exist")
        report = IngestReport()
        journals = self._scan_journals(journal_dir, report)
        self._refuse_mixed_fingerprints(journals)
        with self._connection:
            for path, label, shard, header, cells in journals:
                self._ingest_journal(path, label, shard, header, cells, report)
            for path in sorted(journal_dir.glob(f"*{_REPORT_SUFFIX}")):
                self._ingest_report(path, report)
        for warning in report.warnings:
            logger.warning("%s", warning)
        return report

    def _scan_journals(self, journal_dir: Path, report: IngestReport) -> List[tuple]:
        """Parse every journal file in ``journal_dir`` into ingestable tuples."""
        journals = []
        for path in sorted(journal_dir.glob("*.jsonl")):
            report.scanned += 1
            parsed = parse_shard_journal_name(path.name)
            if parsed is not None:
                label, shard = parsed
            else:
                label, shard = path.name[: -len(".jsonl")], None
            header, cells = read_journal_records(path)
            if header is None:
                report.warnings.append(
                    f"skipping {path}: no readable journal header (still being "
                    "written, or not a campaign journal)"
                )
                continue
            stale = stale_version_reason(header)
            if stale is not None or not header.get("fingerprint"):
                report.warnings.append(
                    f"skipping {path}: {stale or 'journal header has no plan fingerprint'}"
                )
                continue
            journals.append((path, label, shard, header, cells))
        return journals

    @staticmethod
    def _refuse_mixed_fingerprints(journals: Sequence[tuple]) -> None:
        """Abort when one label's journal files disagree on the plan fingerprint."""
        by_label: Dict[str, Dict[str, List[str]]] = {}
        for path, label, _, header, _ in journals:
            by_label.setdefault(label, {}).setdefault(
                header["fingerprint"], []
            ).append(str(path))
        for label, fingerprints in sorted(by_label.items()):
            if len(fingerprints) > 1:
                detail = "; ".join(
                    f"fingerprint {fingerprint[:12]}… in {', '.join(paths)}"
                    for fingerprint, paths in sorted(fingerprints.items())
                )
                raise StoreError(
                    f"journals for label {label!r} carry mixed plan fingerprints "
                    f"({detail}) — they describe different plans (stale shard "
                    "journals from an older grid?); remove or move the stale "
                    "files before ingesting"
                )

    def _upsert_source(self, path: Path, kind: str) -> Optional[int]:
        """Record ``path`` in ``sources``; ``None`` means unchanged (skip).

        A changed file first drops every row its previous ingest contributed,
        so re-ingesting a grown shard journal (or a rewritten report) can
        never duplicate rows.
        """
        stat = path.stat()
        resolved = str(path.resolve())
        row = self._connection.execute(
            "SELECT source_id, mtime_ns, size_bytes FROM sources WHERE path = ?",
            (resolved,),
        ).fetchone()
        if row is not None:
            if row["mtime_ns"] == stat.st_mtime_ns and row["size_bytes"] == stat.st_size:
                return None
            source_id = row["source_id"]
            self._connection.execute("DELETE FROM cells WHERE source_id = ?", (source_id,))
            for report_row in self._connection.execute(
                "SELECT report_id FROM reports WHERE source_id = ?", (source_id,)
            ).fetchall():
                self._connection.execute(
                    "DELETE FROM attempts WHERE report_id = ?", (report_row["report_id"],)
                )
                self._connection.execute(
                    "DELETE FROM backends WHERE report_id = ?", (report_row["report_id"],)
                )
            self._connection.execute("DELETE FROM reports WHERE source_id = ?", (source_id,))
            self._connection.execute(
                "UPDATE sources SET mtime_ns = ?, size_bytes = ?, ingested_at = ? "
                "WHERE source_id = ?",
                # ingested_at is provenance metadata: sources-table only,
                # never journaled, never fingerprinted — hence the exemption.
                (stat.st_mtime_ns, stat.st_size, time.time(), source_id),  # repro-lint: disable=REP003 -- ingested_at is provenance metadata, never fingerprinted
            )
            return source_id
        cursor = self._connection.execute(
            "INSERT INTO sources (path, kind, mtime_ns, size_bytes, ingested_at) "
            "VALUES (?, ?, ?, ?, ?)",
            (resolved, kind, stat.st_mtime_ns, stat.st_size, time.time()),  # repro-lint: disable=REP003 -- ingested_at is provenance metadata, never fingerprinted
        )
        return cursor.lastrowid

    def _campaign_id(self, label: str, header: dict, report: IngestReport) -> int:
        """The campaign row for ``(label, fingerprint)``, created on first sight."""
        row = self._connection.execute(
            "SELECT campaign_id FROM campaigns WHERE label = ? AND fingerprint = ?",
            (label, header["fingerprint"]),
        ).fetchone()
        if row is not None:
            return row["campaign_id"]
        cursor = self._connection.execute(
            "INSERT INTO campaigns (label, experiment_id, fingerprint, "
            "fingerprint_version, cell_count) VALUES (?, ?, ?, ?, ?)",
            (
                label,
                header.get("experiment_id", label),
                header["fingerprint"],
                header["fingerprint_version"],
                header.get("cell_count", 0),
            ),
        )
        report.campaigns_added += 1
        return cursor.lastrowid

    def _ingest_journal(
        self,
        path: Path,
        label: str,
        shard,
        header: dict,
        cells: Sequence[dict],
        report: IngestReport,
    ) -> None:
        """Insert one parsed journal's cell rows (skipping unchanged files)."""
        kind = "shard-journal" if shard is not None else "journal"
        source_id = self._upsert_source(path, kind)
        if source_id is None:
            report.skipped += 1
            return
        campaign_id = self._campaign_id(label, header, report)
        shard_index = shard.index if shard is not None else None
        shard_count = shard.count if shard is not None else None
        self._connection.executemany(
            "INSERT OR REPLACE INTO cells (campaign_id, source_id, cell_index, "
            "cell_key, output, shard_index, shard_count) VALUES (?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    campaign_id,
                    source_id,
                    record["index"],
                    json.dumps(record.get("key")),
                    json.dumps(record["output"]),
                    shard_index,
                    shard_count,
                )
                for record in cells
            ],
        )
        report.cells_added += len(cells)
        report.ingested.append(str(path))

    def _ingest_report(self, path: Path, report: IngestReport) -> None:
        """Insert one ``<label>.orchestrator.json`` attempt report."""
        report.scanned += 1
        try:
            payload = json.loads(path.read_text(encoding="utf8"))
        except (OSError, json.JSONDecodeError) as error:
            report.warnings.append(f"skipping {path}: unreadable report ({error})")
            return
        if not isinstance(payload, dict) or "shards" not in payload:
            report.warnings.append(f"skipping {path}: not an orchestrator report")
            return
        source_id = self._upsert_source(path, "report")
        if source_id is None:
            report.skipped += 1
            return
        label = path.name[: -len(_REPORT_SUFFIX)]
        cursor = self._connection.execute(
            "INSERT INTO reports (source_id, label, experiment_id, shard_count, "
            "cell_count, max_retries, merged, duration_seconds) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                source_id,
                label,
                payload.get("experiment_id", label),
                payload.get("shard_count", 0),
                payload.get("cell_count", 0),
                payload.get("max_retries", 0),
                1 if payload.get("merged") else 0,
                payload.get("duration_seconds", 0.0),
            ),
        )
        report_id = cursor.lastrowid
        self._connection.executemany(
            "INSERT INTO backends (report_id, position, description) VALUES (?, ?, ?)",
            [
                (report_id, position, str(description))
                for position, description in enumerate(payload.get("backends", []))
            ],
        )
        attempt_rows = []
        for outcome in payload.get("shards", []):
            for attempt in outcome.get("attempts", []):
                attempt_rows.append(
                    (
                        report_id,
                        outcome.get("shard", "?"),
                        attempt.get("number", 0),
                        attempt.get("backend"),
                        attempt.get("returncode"),
                        attempt.get("duration_seconds", 0.0),
                        attempt.get("cells_completed", 0),
                        1 if attempt.get("resumed") else 0,
                        attempt.get("reason"),
                        1 if attempt.get("reason") is None else 0,
                    )
                )
        self._connection.executemany(
            "INSERT INTO attempts (report_id, shard, attempt, backend, returncode, "
            "duration_seconds, cells_completed, resumed, reason, succeeded) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            attempt_rows,
        )
        report.attempts_added += len(attempt_rows)
        report.ingested.append(str(path))

    # --------------------------------------------------------------- queries
    def _campaign(self, label: str, fingerprint: Optional[str] = None) -> sqlite3.Row:
        """The newest campaign row for ``label`` (optionally pinned by digest)."""
        if fingerprint is not None:
            row = self._connection.execute(
                "SELECT * FROM campaigns WHERE label = ? AND fingerprint LIKE ? "
                "ORDER BY campaign_id DESC LIMIT 1",
                (label, fingerprint + "%"),
            ).fetchone()
        else:
            row = self._connection.execute(
                "SELECT * FROM campaigns WHERE label = ? ORDER BY campaign_id DESC LIMIT 1",
                (label,),
            ).fetchone()
        if row is None:
            known = [
                r["label"]
                for r in self._connection.execute(
                    "SELECT DISTINCT label FROM campaigns ORDER BY label"
                ).fetchall()
            ]
            raise StoreError(
                f"no ingested campaign named {label!r}"
                + (f" with fingerprint {fingerprint!r}" if fingerprint else "")
                + (f"; ingested labels: {known}" if known else "; the store is empty")
            )
        return row

    def query_campaigns(self) -> Tuple[List[str], List[tuple]]:
        """Canned query: every campaign with its cell coverage and sources."""
        return _result(
            self._connection.execute(
                """
                SELECT c.label, c.experiment_id, c.fingerprint, c.fingerprint_version,
                       c.cell_count,
                       COUNT(DISTINCT l.cell_index) AS cells_ingested,
                       COUNT(DISTINCT l.source_id) AS sources
                FROM campaigns c LEFT JOIN cells l ON l.campaign_id = c.campaign_id
                GROUP BY c.campaign_id ORDER BY c.label, c.campaign_id
                """
            )
        )

    def query_cells(
        self, label: str, fingerprint: Optional[str] = None
    ) -> Tuple[List[str], List[tuple]]:
        """Canned query: per-cell outcomes of one campaign, in plan order.

        Each cell appears exactly once even when several sources recorded it
        (a merged journal beside shard journals): byte-identity makes every
        copy equal, so the first-ingested row wins deterministically.  The
        ``cell_key`` and ``output`` columns are JSON-decoded — ``output`` is
        exactly the journal's cell output, so reassembling the rows in order
        reproduces the merged journal payload.
        """
        campaign = self._campaign(label, fingerprint)
        rows = self._connection.execute(
            """
            SELECT cell_index, cell_key, output FROM cells
            WHERE campaign_id = :campaign
              AND rowid IN (SELECT MIN(rowid) FROM cells
                            WHERE campaign_id = :campaign GROUP BY cell_index)
            ORDER BY cell_index
            """,
            {"campaign": campaign["campaign_id"]},
        ).fetchall()
        return ["cell_index", "cell_key", "output"], [
            (row["cell_index"], json.loads(row["cell_key"]), json.loads(row["output"]))
            for row in rows
        ]

    def query_slice(
        self, label: str, coordinate: str = "ber", fingerprint: Optional[str] = None
    ) -> Tuple[List[str], List[tuple]]:
        """Canned query: outcome statistics sliced by one cell-key coordinate.

        Groups the campaign's cells by the value following ``coordinate`` in
        their key (e.g. ``ber`` for the failure-rate-vs-BER slices of the
        fig6a/fig6b grids) and aggregates every numeric leaf of the outputs:
        count, mean, min, max.  Cells whose key lacks the coordinate group
        under ``None``.
        """
        _, cells = self.query_cells(label, fingerprint)
        groups: Dict[object, List[float]] = {}
        cell_counts: Dict[object, int] = {}
        for _, key, output in cells:
            value = _key_coordinate(key, coordinate)
            groups.setdefault(value, []).extend(_numeric_leaves(output))
            cell_counts[value] = cell_counts.get(value, 0) + 1
        columns = [coordinate, "cells", "values", "mean", "min", "max"]
        rows = []
        for value in sorted(groups, key=lambda item: (item is None, str(item))):
            leaves = groups[value]
            rows.append(
                (
                    value,
                    cell_counts[value],
                    len(leaves),
                    round(sum(leaves) / len(leaves), 6) if leaves else None,
                    min(leaves) if leaves else None,
                    max(leaves) if leaves else None,
                )
            )
        return columns, rows

    def query_attempts(self, label: Optional[str] = None) -> Tuple[List[str], List[tuple]]:
        """Canned query: every orchestrator attempt, per shard, in order."""
        sql = """
            SELECT r.label, a.shard, a.attempt, a.backend, a.returncode,
                   a.duration_seconds, a.cells_completed, a.resumed, a.succeeded,
                   a.reason
            FROM attempts a JOIN reports r ON r.report_id = a.report_id
        """
        params: tuple = ()
        if label is not None:
            sql += " WHERE r.label = ?"
            params = (label,)
        sql += " ORDER BY r.label, a.shard, a.attempt"
        return _result(self._connection.execute(sql, params))

    def query_timings(self, label: Optional[str] = None) -> Tuple[List[str], List[tuple]]:
        """Canned query: per-backend attempt timings and success rates."""
        sql = """
            SELECT COALESCE(a.backend, '?') AS backend,
                   COUNT(*) AS attempts,
                   SUM(a.succeeded) AS succeeded,
                   ROUND(AVG(a.duration_seconds), 3) AS mean_seconds,
                   ROUND(SUM(a.duration_seconds), 3) AS total_seconds
            FROM attempts a JOIN reports r ON r.report_id = a.report_id
        """
        params: tuple = ()
        if label is not None:
            sql += " WHERE r.label = ?"
            params = (label,)
        sql += " GROUP BY a.backend ORDER BY backend"
        return _result(self._connection.execute(sql, params))

    def sql(self, query: str) -> Tuple[List[str], List[tuple]]:
        """Raw-SQL escape hatch: execute ``query`` and return columns + rows."""
        try:
            return _result(self._connection.execute(query))
        except sqlite3.Error as error:
            raise StoreError(f"SQL query failed: {error}")


def _result(cursor: sqlite3.Cursor) -> Tuple[List[str], List[tuple]]:
    """A query's ``(columns, rows)``, with the column names the SQL gave them."""
    columns = [description[0] for description in cursor.description or []]
    return columns, [tuple(row) for row in cursor.fetchall()]


def format_rows(columns: Sequence[str], rows: Sequence[tuple], fmt: str = "table") -> str:
    """Render a query result as ``table`` (aligned), ``json``, or ``ndjson``.

    Non-scalar values (decoded cell keys and outputs) stay JSON in every
    format: ``json``/``ndjson`` emit them natively, the table compacts them
    to one-line JSON.
    """
    records = [dict(zip(columns, row)) for row in rows]
    if fmt == "json":
        return json.dumps(records, indent=2)
    if fmt == "ndjson":
        return "\n".join(json.dumps(record) for record in records)
    if fmt != "table":
        raise StoreError(f"unknown output format {fmt!r}; use table, json or ndjson")

    def _cell_text(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, (dict, list)):
            return json.dumps(value)
        return str(value)

    texts = [[_cell_text(value) for value in row] for row in rows]
    widths = [
        max(len(str(column)), *(len(row[i]) for row in texts)) if texts else len(str(column))
        for i, column in enumerate(columns)
    ]
    lines = [
        "  ".join(str(column).ljust(width) for column, width in zip(columns, widths)).rstrip(),
        "  ".join("-" * width for width in widths),
    ]
    for row in texts:
        lines.append("  ".join(text.ljust(width) for text, width in zip(row, widths)).rstrip())
    lines.append(f"({len(rows)} row(s))")
    return "\n".join(lines)
