"""Tests for streaming result journals and campaign resume.

The central guarantee: a campaign killed partway through can be rerun with
``resume=True`` and the merged payload is byte-identical to an uninterrupted
run — whether the interruption was a raising cell, a killed worker, or a
truncated journal line from a mid-write kill.
"""

import json
import logging
import os

import pytest

from repro.core.config import GridWorldScale
from repro.runtime.cells import CampaignPlan, CellTask
from repro.runtime.journal import (
    FINGERPRINT_VERSION,
    CampaignJournal,
    JournalProgress,
    journal_records,
    plan_fingerprint,
)
from repro.runtime.residency import PolicyRef
from repro.runtime.runner import CampaignRunner, CellExecutionError


def _payload(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


def _double(value: float) -> float:
    return value * 2.0


def _flaky(value: float, sentinel: str) -> float:
    if os.path.exists(sentinel):
        raise RuntimeError("injected interruption")
    return value * 2.0


def _die_if(value: float, sentinel: str) -> float:
    if os.path.exists(sentinel):
        os._exit(1)
    return value * 2.0


def _plan(count: int = 6, fn=_double, extra=None) -> CampaignPlan:
    cells = [
        CellTask(
            experiment_id="journaled",
            key=("cell", index),
            fn=fn,
            kwargs={"value": float(index), **(extra or {})},
        )
        for index in range(count)
    ]
    return CampaignPlan(experiment_id="journaled", cells=cells, merge=list)


class TestJournalFile:
    def test_round_trip(self, tmp_path):
        plan = _plan(3)
        journal = CampaignJournal(tmp_path / "j.jsonl", plan)
        journal.start({})
        for index in range(3):
            journal.record(index, plan.cells[index].run())
        journal.close()
        loaded = CampaignJournal(tmp_path / "j.jsonl", plan).load()
        assert loaded == {0: 0.0, 1: 2.0, 2: 4.0}

    def test_decoded_output_returned_by_record(self, tmp_path):
        import numpy as np

        journal = CampaignJournal(tmp_path / "j.jsonl", _plan(1))
        journal.start({})
        decoded = journal.record(0, (np.float64(1.5), np.int64(3)))
        journal.close()
        # numpy scalars and tuples normalize to JSON-native values.
        assert decoded == [1.5, 3]
        assert type(decoded[0]) is float and type(decoded[1]) is int

    def test_missing_file_loads_empty(self, tmp_path):
        assert CampaignJournal(tmp_path / "absent.jsonl", _plan()).load() == {}

    def test_fingerprint_mismatch_invalidates(self, tmp_path):
        plan = _plan(3)
        journal = CampaignJournal(tmp_path / "j.jsonl", plan)
        journal.start({})
        journal.record(0, 0.0)
        journal.close()
        other = _plan(3, extra={"sentinel": "different-grid"}, fn=_flaky)
        assert plan_fingerprint(other) != plan_fingerprint(plan)
        assert CampaignJournal(tmp_path / "j.jsonl", other).load() == {}

    def test_fingerprint_mismatch_is_reported_not_silent(self, tmp_path, caplog):
        """An existing-but-rejected journal must name the file and the reason."""
        plan = _plan(3)
        journal = CampaignJournal(tmp_path / "j.jsonl", plan)
        journal.start({})
        journal.record(0, 0.0)
        journal.close()
        other = _plan(3, extra={"sentinel": "different-grid"}, fn=_flaky)
        reader = CampaignJournal(tmp_path / "j.jsonl", other)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.journal"):
            assert reader.load() == {}
        assert reader.invalid_reason is not None
        assert "fingerprint mismatch" in reader.invalid_reason
        assert str(tmp_path / "j.jsonl") in caplog.text
        assert "recomputed" in caplog.text

    def test_missing_file_sets_no_invalid_reason(self, tmp_path):
        journal = CampaignJournal(tmp_path / "absent.jsonl", _plan())
        assert journal.load() == {}
        assert journal.invalid_reason is None

    def test_accepted_journal_sets_no_invalid_reason(self, tmp_path):
        plan = _plan(2)
        journal = CampaignJournal(tmp_path / "j.jsonl", plan)
        journal.start({})
        journal.record(0, 0.0)
        journal.close()
        reader = CampaignJournal(tmp_path / "j.jsonl", _plan(2))
        assert reader.load() == {0: 0.0}
        assert reader.invalid_reason is None

    def test_unversioned_v1_journal_reported_as_stale(self, tmp_path, caplog):
        """A PR 2 journal (no fingerprint_version field) must be detected and
        reported as written under the old, machine-dependent scheme."""
        plan = _plan(2)
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, plan)
        journal.start({})
        journal.record(0, 0.0)
        journal.close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["fingerprint_version"]
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")

        reader = CampaignJournal(path, plan)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.journal"):
            assert reader.load() == {}
        assert "version-1" in reader.invalid_reason
        assert str(FINGERPRINT_VERSION) in reader.invalid_reason

    def test_future_fingerprint_version_reported(self, tmp_path):
        plan = _plan(2)
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, plan)
        journal.start({})
        journal.close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["fingerprint_version"] = FINGERPRINT_VERSION + 1
        path.write_text(json.dumps(header) + "\n")
        reader = CampaignJournal(path, plan)
        assert reader.load() == {}
        assert f"fingerprint version {FINGERPRINT_VERSION + 1}" in reader.invalid_reason

    def test_shard_journal_rejected_by_whole_plan_reader(self, tmp_path):
        plan = _plan(4)
        path = tmp_path / "j.jsonl"
        shard_journal = CampaignJournal(path, plan, shard=(1, 2))
        shard_journal.start({})
        shard_journal.record(0, 0.0)
        shard_journal.close()
        whole = CampaignJournal(path, _plan(4))
        assert whole.load() == {}
        assert "shard 1/2" in whole.invalid_reason
        # ... and the shard-coordinate reader accepts it.
        again = CampaignJournal(path, _plan(4), shard=(1, 2))
        assert again.load() == {0: 0.0}


class TestPortableFingerprints:
    """Journals must survive a policy-cache move or a machine change: the
    fingerprint digests PolicyRef as (key, field), never its cache_dir."""

    @staticmethod
    def _ref_plan(cache_dir: str, ref_key: str = "drone-tiny") -> CampaignPlan:
        cells = [
            CellTask(
                experiment_id="portable",
                key=("cell", index),
                fn=_double,
                kwargs={
                    "value": float(index),
                    "pretrained": PolicyRef(cache_dir=cache_dir, key=ref_key, field="policy"),
                },
            )
            for index in range(3)
        ]
        return CampaignPlan(experiment_id="portable", cells=cells, merge=list)

    def test_cache_dir_excluded_from_fingerprint(self):
        plan_a = self._ref_plan("/machine-a/cache")
        plan_b = self._ref_plan("/machine-b/elsewhere")
        assert plan_fingerprint(plan_a) == plan_fingerprint(plan_b)

    def test_ref_key_still_fingerprint_relevant(self):
        # Only the machine-local location is excluded; the cache *entry*
        # (which encodes scale/seed/datatype) still invalidates.
        assert plan_fingerprint(self._ref_plan("/cache", "drone-tiny")) != plan_fingerprint(
            self._ref_plan("/cache", "drone-paper")
        )

    def test_journal_written_under_other_cache_dir_is_accepted(self, tmp_path):
        """The PR 3 bug: a journal written on machine A was silently
        invalidated on machine B because the absolute cache path leaked into
        the digest via repr()."""
        writer_plan = self._ref_plan(str(tmp_path / "cache-a"))
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, writer_plan)
        journal.start({})
        journal.record(0, 0.0)
        journal.record(1, 2.0)
        journal.close()

        reader_plan = self._ref_plan(str(tmp_path / "cache-b"))
        reader = CampaignJournal(path, reader_plan)
        assert reader.load() == {0: 0.0, 1: 2.0}
        assert reader.invalid_reason is None


class TestKeyNormalization:
    def test_nested_tuple_key_survives_round_trip(self, tmp_path):
        """Regression: load() used to compare against list(cell.key), which
        converts only the outer tuple — a nested tuple inside a key could
        never match its JSON round-tripped form, so those cells were silently
        recomputed on every resume."""
        cells = [
            CellTask(
                experiment_id="nested",
                key=("cell", index, ("coords", index, index + 1)),
                fn=_double,
                kwargs={"value": float(index)},
            )
            for index in range(3)
        ]
        plan = CampaignPlan(experiment_id="nested", cells=cells, merge=list)
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, plan)
        journal.start({})
        for index in range(3):
            journal.record(index, plan.cells[index].run())
        journal.close()
        assert CampaignJournal(path, plan).load() == {0: 0.0, 1: 2.0, 2: 4.0}

    def test_nested_key_resume_skips_journaled_cells(self, tmp_path):
        cells = [
            CellTask("nested", ("cell", (index,)), _double, {"value": float(index)})
            for index in range(4)
        ]

        def plan():
            return CampaignPlan("nested", list(cells), merge=list)

        journal = CampaignJournal(tmp_path / "j.jsonl", plan())
        journal.start({})
        journal.record(0, 0.0)
        journal.record(1, 2.0)
        journal.close()
        runner = CampaignRunner(workers=1, resume=True)
        result = runner.run_plan(plan(), journal=CampaignJournal(tmp_path / "j.jsonl", plan()))
        assert result == [0.0, 2.0, 4.0, 6.0]
        # The two journaled cells were not re-recorded.
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 4

    def test_truncated_trailing_line_discarded(self, tmp_path):
        plan = _plan(3)
        journal = CampaignJournal(tmp_path / "j.jsonl", plan)
        journal.start({})
        journal.record(0, 0.0)
        journal.record(1, 2.0)
        journal.close()
        path = tmp_path / "j.jsonl"
        path.write_text(path.read_text() + '{"kind": "cell", "index": 2, "out')
        assert CampaignJournal(path, plan).load() == {0: 0.0, 1: 2.0}

    def test_record_requires_start(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl", _plan(1))
        with pytest.raises(RuntimeError, match="not open"):
            journal.record(0, 1.0)

    def test_resume_truncates_partial_tail(self, tmp_path):
        """A resumed run must not append onto a partial trailing write.

        Otherwise the first resumed record concatenates onto the garbage
        tail, producing one permanently unparseable line that hides a
        completed cell from every later resume.
        """
        plan = _plan(4)
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, plan)
        journal.start({})
        journal.record(0, 0.0)
        journal.close()
        with path.open("a", encoding="utf8") as handle:
            handle.write('{"kind": "cell", "inde')  # kill -9 mid-write

        second = CampaignJournal(path, plan)
        completed = second.load()
        assert completed == {0: 0.0}
        second.start(completed)
        second.record(1, 2.0)
        second.close()
        # Every record — pre-kill and post-resume — is loadable afterwards.
        assert CampaignJournal(path, plan).load() == {0: 0.0, 1: 2.0}

    def test_unterminated_final_line_not_trusted(self, tmp_path):
        plan = _plan(2)
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, plan)
        journal.start({})
        journal.record(0, 0.0)
        journal.close()
        # A parseable but unterminated tail is still a partial write.
        with path.open("a", encoding="utf8") as handle:
            handle.write('{"kind": "cell", "index": 1, "key": ["cell", 1], "output": 2.0}')
        assert CampaignJournal(path, plan).load() == {0: 0.0}


def _count_cells(path) -> int:
    """Cell records the shared journal reader finds in ``path``."""
    return sum(
        1
        for record, _ in journal_records(path)
        if isinstance(record, dict) and record.get("kind") == "cell"
    )


class TestProgressProbes:
    """The orchestrator's journal tailing: cheap, incremental, kill-tolerant."""

    @staticmethod
    def _cell_line(index: int) -> str:
        return json.dumps({"kind": "cell", "index": index, "key": ["cell", index],
                           "output": float(index)}) + "\n"

    def test_count_ignores_missing_file_and_header(self, tmp_path):
        path = tmp_path / "x.jsonl"
        assert _count_cells(path) == 0
        path.write_text(json.dumps({"kind": "header"}) + "\n" + self._cell_line(0))
        assert _count_cells(path) == 1

    def test_count_stops_at_partial_trailing_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text(
            json.dumps({"kind": "header"}) + "\n" + self._cell_line(0)
            + '{"kind": "cell", "ind'  # unterminated mid-write tail
        )
        assert _count_cells(path) == 1

    def test_reader_ends_at_first_unparsable_line_with_byte_lengths(self, tmp_path):
        """The one journal-line rule: newline-terminated lines only, and the
        first unparsable line ends the scan even when later lines parse."""
        path = tmp_path / "x.jsonl"
        header = json.dumps({"kind": "header"}) + "\n"
        path.write_text(header + self._cell_line(0) + "garbage\n" + self._cell_line(1))
        records = list(journal_records(path))
        assert [record["kind"] for record, _ in records] == ["header", "cell"]
        assert [size for _, size in records] == [len(header), len(self._cell_line(0))]

    def test_incremental_probe_reads_only_new_bytes(self, tmp_path):
        path = tmp_path / "x.jsonl"
        progress = JournalProgress(path)
        assert progress.poll() == 0  # file does not exist yet
        path.write_text(json.dumps({"kind": "header"}) + "\n")
        assert progress.poll() == 0
        with path.open("a") as handle:
            handle.write(self._cell_line(0))
        assert progress.poll() == 1
        # A partial trailing write is not counted until its newline lands.
        with path.open("a") as handle:
            handle.write('{"kind": "cell", "index": 1')
        assert progress.poll() == 1
        with path.open("a") as handle:
            handle.write(', "key": ["cell", 1], "output": 1.0}\n')
        assert progress.poll() == 2

    def test_incremental_probe_rescans_after_truncation(self, tmp_path):
        """A retry's resume truncates the partial tail (or rewrites the file
        entirely); the prober must rescan instead of keeping a stale count."""
        path = tmp_path / "x.jsonl"
        progress = JournalProgress(path)
        path.write_text(
            json.dumps({"kind": "header"}) + "\n"
            + self._cell_line(0) + self._cell_line(1) + self._cell_line(2)
        )
        assert progress.poll() == 3
        path.write_text(json.dumps({"kind": "header"}) + "\n" + self._cell_line(0))
        assert progress.poll() == 1

    def test_incremental_probe_matches_one_shot_count(self, tmp_path):
        path = tmp_path / "x.jsonl"
        progress = JournalProgress(path)
        path.write_text(json.dumps({"kind": "header"}) + "\n")
        for index in range(7):
            with path.open("a") as handle:
                handle.write(self._cell_line(index))
            assert progress.poll() == _count_cells(path) == index + 1

    def test_probe_cost_is_linear_in_new_bytes_not_polls(self, tmp_path):
        """The regression guard for every journal-tailing loop (orchestrator
        shard driving, service progress/status/stream): polling N times over
        a growing file must read each byte once — O(new bytes) total — not
        re-read the whole file per poll (O(polls x file size))."""
        path = tmp_path / "x.jsonl"
        progress = JournalProgress(path)
        path.write_text(json.dumps({"kind": "header"}) + "\n")
        polls = 40
        for index in range(polls):
            with path.open("a") as handle:
                handle.write(self._cell_line(index))
            # Poll several times per append: idle polls see no new bytes and
            # must therefore read (essentially) nothing.
            for _ in range(3):
                progress.poll()
        total_size = path.stat().st_size
        # Every byte read exactly once.  An O(polls x size) prober would have
        # read ~60x more (3 polls x 40 appends over an ever-growing file).
        assert progress.bytes_read == total_size

    def test_probe_bytes_read_accounts_rescans_after_truncation(self, tmp_path):
        """Shrink-by-rescan is the one case a byte may be read twice — and
        only the surviving bytes, once more."""
        path = tmp_path / "x.jsonl"
        progress = JournalProgress(path)
        path.write_text(
            json.dumps({"kind": "header"}) + "\n"
            + self._cell_line(0) + self._cell_line(1) + self._cell_line(2)
        )
        assert progress.poll() == 3
        first_size = path.stat().st_size
        assert progress.bytes_read == first_size
        path.write_text(json.dumps({"kind": "header"}) + "\n" + self._cell_line(0))
        assert progress.poll() == 1
        assert progress.bytes_read == first_size + path.stat().st_size


class TestResume:
    @pytest.mark.parametrize("workers,batch_size", [(1, 1), (2, 1), (2, 3)])
    def test_resume_after_raising_cell_is_byte_consistent(self, tmp_path, workers, batch_size):
        sentinel = tmp_path / "explode"
        sentinel.touch()
        plan = lambda: _plan(6, fn=_flaky, extra={"sentinel": str(sentinel)})  # noqa: E731
        clean = _plan(6).run_serial()

        runner = CampaignRunner(
            workers=workers, batch_size=batch_size, journal_dir=tmp_path, resume=True
        )
        with pytest.raises((CellExecutionError, RuntimeError)):
            runner.run_plan(plan(), journal=runner.journal_for(plan()))
        # The journal survived the failure in a loadable state.
        journal = runner.journal_for(plan())
        completed = journal.load()
        assert all(completed[i] == float(i) * 2.0 for i in completed)

        sentinel.unlink()
        resumed = runner.run_plan(plan(), journal=runner.journal_for(plan()))
        assert resumed == clean

    def test_resume_after_killed_worker_is_byte_consistent(self, tmp_path):
        sentinel = tmp_path / "kill"
        sentinel.touch()
        plan = lambda: _plan(6, fn=_die_if, extra={"sentinel": str(sentinel)})  # noqa: E731
        runner = CampaignRunner(workers=2, journal_dir=tmp_path, resume=True)
        with pytest.raises(CellExecutionError, match="worker process died"):
            runner.run_plan(plan(), journal=runner.journal_for(plan()))
        sentinel.unlink()
        resumed = runner.run_plan(plan(), journal=runner.journal_for(plan()))
        assert resumed == _plan(6).run_serial()

    def test_resume_skips_journaled_cells(self, tmp_path):
        plan = _plan(6)
        journal = CampaignJournal(tmp_path / "j.jsonl", plan)
        journal.start({})
        for index in (0, 1, 2):
            journal.record(index, plan.cells[index].run())
        journal.close()

        runner = CampaignRunner(workers=1, resume=True)
        result = runner.run_plan(_plan(6), journal=CampaignJournal(tmp_path / "j.jsonl", _plan(6)))
        assert result == _plan(6).run_serial()
        # Only the three missing cells were appended to the journal.
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 6

    def test_without_resume_journal_is_rewritten(self, tmp_path):
        plan = _plan(4)
        runner = CampaignRunner(workers=1, journal_dir=tmp_path, resume=False)
        runner.run_plan(plan, journal=runner.journal_for(plan))
        runner.run_plan(_plan(4), journal=runner.journal_for(_plan(4)))
        lines = (tmp_path / "journaled.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 4  # fresh header, not an appended duplicate


class TestArtifactResume:
    def test_fig3a_interrupted_resume_byte_identical(self, policy_cache):
        """Kill-after-N-cells on a real artifact: resume must reproduce the
        uninterrupted payload byte for byte."""
        scale = GridWorldScale.tiny()
        uninterrupted = CampaignRunner(gridworld_scale=scale, cache=policy_cache, workers=1)
        reference = _payload(uninterrupted.run("fig3a"))

        import tempfile
        from pathlib import Path

        journal_dir = Path(tempfile.mkdtemp())
        interrupted = CampaignRunner(
            gridworld_scale=scale, cache=policy_cache, workers=1, journal_dir=journal_dir
        )
        plan = interrupted.plan("fig3a")
        journal = interrupted.journal_for(plan)
        journal.start({})
        for index in range(4):  # ... then the campaign dies
            journal.record(index, plan.cells[index].run())
        journal.close()

        resumer = CampaignRunner(
            gridworld_scale=scale,
            cache=policy_cache,
            workers=2,
            batch_size=2,
            journal_dir=journal_dir,
            resume=True,
        )
        assert _payload(resumer.run("fig3a")) == reference
