"""Streaming result persistence for campaign runs.

A :class:`CampaignJournal` is a per-artifact JSONL file that records every
completed cell output as soon as it is available.  A killed campaign can then
be restarted with ``repro-campaign <id> --resume``: already-journaled cells
are skipped and the merged payload is byte-identical to an uninterrupted run.
The same file format is the wire protocol for multi-machine sharding
(:mod:`repro.runtime.sharding`): each shard journals its disjoint subset of
cell indices to ``<label>.shard-<k>-of-<n>.jsonl`` and ``--merge-only`` folds
the shard journals back together without executing a cell.

File format — one JSON object per line:

* a header line ``{"kind": "header", "experiment_id": ..., "cell_count": ...,
  "fingerprint": ..., "fingerprint_version": ...}`` identifying the exact
  plan the journal belongs to (plus ``"shard": [k, n]`` for shard journals);
* cell lines ``{"kind": "cell", "index": ..., "key": [...], "output": ...}``
  in completion (not plan) order.

The fingerprint digests every cell's key and keyword arguments, so a journal
written for a different scale, seed or grid invalidates (with a logged
warning naming the file and the reason) instead of poisoning a resumed run.

**Fingerprint versioning.**  ``fingerprint_version`` records the digest
scheme a journal was written with; the current scheme is
:data:`FINGERPRINT_VERSION`.  Version 1 (PR 2) digested ``repr()`` of every
cell kwarg, which embedded machine-local state — notably the absolute
``cache_dir`` inside :class:`~repro.runtime.residency.PolicyRef` — so a
journal written on one machine (or before a policy-cache move) silently
mismatched everywhere else.  Version 2 digests kwargs through
:func:`fingerprint_token`, which lets values define an explicitly
machine-independent token (``PolicyRef`` contributes only ``(key, field)``),
and normalizes cell keys through a JSON round trip.  Old version-1 journals
(which carry no ``fingerprint_version`` field) are detected and *reported* as
stale rather than silently ignored.

Each line is flushed and fsynced when written; loading tolerates a truncated
or corrupt trailing line (the signature of a mid-write kill) by discarding
it.

Byte-identity across interruption (and across shard merges) is guaranteed by
construction: outputs are merged from their JSON-decoded form whether they
were just computed or read back from a journal, and JSON round trips floats
exactly.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Dict, Iterator, Optional, TextIO, Tuple

from repro.utils.serialization import NumpyJSONEncoder

logger = logging.getLogger(__name__)

#: Current plan-fingerprint scheme.  Bump when the digest inputs change so
#: that journals written under an older scheme are reported as stale instead
#: of silently mismatching.  Version 1 (unversioned headers) digested raw
#: ``repr()`` of cell kwargs and was machine-dependent; see module docstring.
FINGERPRINT_VERSION = 2


def fingerprint_token(value) -> str:
    """The digest token for one cell keyword argument.

    Values that define a ``fingerprint_token()`` method (e.g.
    :class:`~repro.runtime.residency.PolicyRef`) provide an explicitly
    machine-independent token; everything else falls back to ``repr``, which
    is deterministic for the frozen dataclasses and scalars used in cell
    kwargs.
    """
    token = getattr(value, "fingerprint_token", None)
    if callable(token):
        return token()
    return repr(value)


def normalize_cell_key(key) -> list:
    """A cell key in its canonical JSON-native form.

    Journaled keys come back from ``json.loads`` as (possibly nested) lists,
    so the in-memory side must be normalized through the same round trip:
    converting only the outer tuple would make any nested tuple inside a key
    mismatch forever after one write/read cycle.
    """
    return json.loads(json.dumps(list(key), cls=NumpyJSONEncoder))


def plan_fingerprint(plan) -> str:
    """A machine-independent digest of the plan's cell structure.

    Digests every cell's normalized key plus the :func:`fingerprint_token`
    of each keyword argument, under the current :data:`FINGERPRINT_VERSION`
    scheme.  Two plans fingerprint identically exactly when they describe the
    same cells — regardless of which machine (or policy-cache directory)
    builds them.
    """
    cell_descriptions = [
        [
            normalize_cell_key(cell.key),
            sorted((name, fingerprint_token(value)) for name, value in cell.kwargs.items()),
        ]
        for cell in plan.cells
    ]
    payload = json.dumps(
        [FINGERPRINT_VERSION, plan.experiment_id, cell_descriptions], sort_keys=True
    )
    return hashlib.sha1(payload.encode("utf8")).hexdigest()


#: What :func:`_journal_lines` yields in place of a line that is not JSON.
_UNPARSABLE = object()


def _journal_lines(raw: bytes) -> Iterator[Tuple[object, int]]:
    """Each newline-terminated line of ``raw``, parsed, with its byte length.

    Only newline-terminated lines count: an unterminated last line is a
    partial write and is never yielded, even when its prefix parses.  A line
    that is not JSON yields ``_UNPARSABLE``.
    """
    for line in raw.split(b"\n")[:-1]:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = _UNPARSABLE
        yield record, len(line) + 1


def journal_records(path) -> Iterator[Tuple[object, int]]:
    """Every complete record of a JSONL journal file, with its line's byte length.

    The one reader that campaign journals, shard journals, the result store
    and the service journal share: the first unparsable line ends the scan,
    since nothing after it in an append-only file can be trusted.  A missing
    file has no records.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return
    for record, size in _journal_lines(raw):
        if record is _UNPARSABLE:
            return
        yield record, size


def stale_version_reason(header: dict) -> Optional[str]:
    """Why a journal header's fingerprint version is stale, or ``None`` if current."""
    version = header.get("fingerprint_version")
    if version == FINGERPRINT_VERSION:
        return None
    written = "an unversioned (version-1) fingerprint" if version is None else (
        f"fingerprint version {version}"
    )
    return (
        f"journal was written with {written}, but this build uses version "
        f"{FINGERPRINT_VERSION}; version-1 fingerprints embedded machine-local "
        "cache paths, so the journal must be recomputed"
    )


class JournalProgress:
    """Incremental cell-count prober for a live (growing) journal file.

    The orchestrator polls every shard journal at sub-second frequency for
    hours; re-reading whole files would make each poll O(file size).  This
    prober remembers the byte offset of the last newline-terminated record it
    has counted and parses only the bytes appended since — O(new bytes) per
    :meth:`poll`.  A file that shrinks (a retry's resume truncates the
    partial tail, or a fresh attempt rewrites the journal) resets the scan;
    an unterminated trailing line is left for the next poll, so a record is
    never counted from a half-written line.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._offset = 0
        self._count = 0
        #: Cumulative bytes this prober has read off disk, across every
        #: :meth:`poll`.  Regression tests assert it stays O(new bytes) —
        #: file size plus rescans — never O(polls × file size).
        self.bytes_read = 0

    def poll(self) -> int:
        """The number of completed-cell records in the journal right now."""
        try:
            size = self.path.stat().st_size
        except OSError:
            self._offset = 0
            self._count = 0
            return 0
        if size < self._offset:
            # Truncated or rewritten since the last poll: rescan from the top.
            self._offset = 0
            self._count = 0
        if size == self._offset:
            return self._count
        with self.path.open("rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        self.bytes_read += len(chunk)
        terminated = chunk.rfind(b"\n")
        if terminated == -1:
            return self._count
        # Unlike journal_records, an unparsable line is skipped, not the end:
        # a journal rewritten under the prober mid-line must not freeze the
        # count (and with it the orchestrator's stall detection).
        for record, _ in _journal_lines(chunk[: terminated + 1]):
            if isinstance(record, dict) and record.get("kind") == "cell":
                self._count += 1
        self._offset += terminated + 1
        return self._count


class CampaignJournal:
    """Append-only JSONL record of one plan's completed cell outputs.

    ``shard=(k, n)`` marks a shard journal: the header records the shard
    coordinates and :meth:`load` refuses a journal whose shard coordinates
    differ from the reader's, so a whole-plan resume can never silently
    consume a partial shard file (or vice versa).
    """

    def __init__(
        self,
        path,
        plan,
        shard: Optional[Tuple[int, int]] = None,
        *,
        fingerprint: Optional[str] = None,
        keys: Optional[list] = None,
    ) -> None:
        self.path = Path(path)
        self.experiment_id = plan.experiment_id
        self.cell_count = plan.cell_count
        # ``fingerprint``/``keys`` let callers that open many journals of the
        # same plan (a merge over N shards) digest the plan once, not N times.
        self.fingerprint = fingerprint if fingerprint is not None else plan_fingerprint(plan)
        self.shard = (int(shard[0]), int(shard[1])) if shard is not None else None
        self._keys = keys if keys is not None else [
            normalize_cell_key(cell.key) for cell in plan.cells
        ]
        self._handle: Optional[TextIO] = None
        # Byte length of the valid prefix found by load(); start() truncates a
        # resumed journal to this point so new records never concatenate onto
        # a partial trailing write from the interrupted run.
        self._valid_bytes = 0
        self._loaded: Optional[Dict[int, object]] = None
        #: Why an *existing* journal file was rejected by :meth:`load`
        #: (``None`` when the file is missing or was accepted).  Callers use
        #: this to distinguish "nothing to resume" from "journal invalidated".
        self.invalid_reason: Optional[str] = None

    # ------------------------------------------------------------------ reading
    def _header_reason(self, record) -> Optional[str]:
        """Why ``record`` is not an acceptable header for this plan, or None."""
        if not isinstance(record, dict) or record.get("kind") != "header":
            return "first line is not a journal header"
        stale = stale_version_reason(record)
        if stale is not None:
            return stale
        if record.get("fingerprint") != self.fingerprint:
            return (
                "plan fingerprint mismatch (the journal was written for a different "
                "experiment, scale, seed or grid)"
            )
        recorded_shard = record.get("shard")
        expected_shard = list(self.shard) if self.shard is not None else None
        if recorded_shard != expected_shard:
            def _describe(shard):
                return f"shard {shard[0]}/{shard[1]}" if shard else "the whole plan"

            return (
                f"journal covers {_describe(recorded_shard)} but the reader expects "
                f"{_describe(expected_shard)}"
            )
        return None

    def load(self) -> Dict[int, object]:
        """Completed cell outputs recorded for *this* plan, keyed by cell index.

        Returns an empty dict when the journal is missing or invalid; an
        invalid (but present) journal additionally sets
        :attr:`invalid_reason` and logs a warning naming the file and the
        reason, so resumes never silently recompute a journal they merely
        failed to recognize.  A corrupt or truncated trailing line — the
        signature of a kill during a write — is discarded; everything before
        it is kept.

        The parse is cached: a journal object is single-use per campaign run,
        so callers (CLI progress reporting, then the runner) share one scan.
        """
        if self._loaded is not None:
            return self._loaded
        self._loaded = {}
        self._valid_bytes = 0
        self.invalid_reason = None
        if not self.path.exists():
            return self._loaded
        records = journal_records(self.path)
        header, valid_bytes = next(records, (None, 0))
        reason = (
            "no readable journal header (empty file, or a partial first write)"
            if header is None
            else self._header_reason(header)
        )
        if reason is not None:
            self._reject(reason)
            return self._loaded
        completed: Dict[int, object] = {}
        for record, size in records:
            if not isinstance(record, dict) or record.get("kind") != "cell":
                break
            index = record.get("index")
            if (
                not isinstance(index, int)
                or not 0 <= index < self.cell_count
                or record.get("key") != self._keys[index]
                or "output" not in record
            ):
                break
            completed[index] = record["output"]
            valid_bytes += size
        self._loaded = completed
        self._valid_bytes = valid_bytes
        return completed

    def _reject(self, reason: str) -> None:
        """Record (and report) why an existing journal file was not usable."""
        self.invalid_reason = reason
        logger.warning(
            "ignoring journal %s: %s; its cells will be recomputed", self.path, reason
        )

    # ------------------------------------------------------------------ writing
    def start(self, completed: Dict[int, object]) -> None:
        """Open the journal for appending.

        With ``completed`` entries (a resumed run) the existing file is first
        truncated to the valid prefix :meth:`load` found — cutting off any
        partial trailing write from the interrupted run — and then extended;
        otherwise it is rewritten with a fresh header.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if completed:
            if self._loaded is None:
                self.load()  # establish the valid-prefix length to keep
            if self._valid_bytes > 0:
                with self.path.open("rb+") as handle:
                    handle.truncate(self._valid_bytes)
            self._handle = self.path.open("a", encoding="utf8")
        else:
            self._handle = self.path.open("w", encoding="utf8")
            header = {
                "kind": "header",
                "experiment_id": self.experiment_id,
                "cell_count": self.cell_count,
                "fingerprint": self.fingerprint,
                "fingerprint_version": FINGERPRINT_VERSION,
            }
            if self.shard is not None:
                header["shard"] = list(self.shard)
            self._append(header)

    def record(self, index: int, output: object) -> object:
        """Journal one completed cell and return the JSON-decoded output.

        The decoded form is what merge steps must consume so that resumed and
        uninterrupted runs accumulate from identical values.
        """
        if self._handle is None:
            raise RuntimeError("journal is not open; call start() first")
        encoded = json.dumps(
            {"kind": "cell", "index": index, "key": self._keys[index], "output": output},
            cls=NumpyJSONEncoder,
        )
        self._append_line(encoded)
        return json.loads(encoded)["output"]

    def close(self) -> None:
        """Close the journal file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _append(self, record: dict) -> None:
        self._append_line(json.dumps(record, cls=NumpyJSONEncoder))

    def _append_line(self, line: str) -> None:
        self._handle.write(line + "\n")
        # Survive a kill -9 mid-campaign: every completed cell reaches disk
        # before the next one is merged.
        self._handle.flush()
        os.fsync(self._handle.fileno())
