"""Run-journal: durable campaign cells, resume-without-remeasure."""

import json

import pytest

from repro.bench import figure2 as figure2_mod
from repro.bench import sweeps as sweeps_mod
from repro.bench.harness import FailureRow
from repro.bench.journal import JournalEntry, RunJournal, cell_key, open_journal
from repro.bench.sweeps import SweepPoint, batch_sweep
from repro.errors import JournalError


class TestRunJournal:
    def test_record_and_reload_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        book = RunJournal(path)
        key = {"experiment": "x", "model": "m", "batch": 2}
        book.record_measurement(key, [0.1, 0.2], resolved_image_size=8)
        book.record_exclusion({"experiment": "x", "model": "n", "batch": 1},
                              "not shipped")
        again = RunJournal(path, resume=True)
        assert len(again) == 2
        entry = again.get(**key)
        assert entry.kind == "measurement"
        assert entry.payload["times"] == [0.1, 0.2]
        assert entry.payload["resolved_image_size"] == 8
        assert again.skipped == 1  # get() counts answered cells

    def test_cell_key_is_order_insensitive(self):
        assert cell_key(a=1, b="x") == cell_key(b="x", a=1)
        assert cell_key(a=1) != cell_key(a=2)

    def test_fresh_open_truncates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path).record_measurement({"cell": 1}, [0.1])
        fresh = RunJournal(path, resume=False)
        assert len(fresh) == 0
        assert not fresh.has(cell=1)

    def test_truncated_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path).record_measurement({"cell": 1}, [0.1])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "measurement", "key": {"cell"')  # killed
        book = RunJournal(path, resume=True)
        assert len(book) == 1
        assert book.corrupt_lines == 1

    def test_truncated_tail_is_trimmed_from_the_file(self, tmp_path):
        """Hard-kill recovery: the partial line must leave the file too.

        Tolerating the tail only in memory is not enough — the next append
        would concatenate onto it and corrupt the *following* record, so a
        single kill would poison the journal permanently.
        """
        path = tmp_path / "run.jsonl"
        RunJournal(path).record_measurement({"cell": 1}, [0.1])
        clean_size = path.stat().st_size
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "measurement", "key": {"cell"')  # killed
        assert path.stat().st_size > clean_size
        RunJournal(path, resume=True)
        assert path.stat().st_size == clean_size  # tail gone from disk

    def test_append_after_crash_recovery_stays_clean(self, tmp_path):
        """Resume-after-kill, record more cells, resume again: no corruption."""
        path = tmp_path / "run.jsonl"
        RunJournal(path).record_measurement({"cell": 1}, [0.1])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "measurement", "key": {"cell": 2}, "pa')
        recovered = RunJournal(path, resume=True)
        assert recovered.corrupt_lines == 1
        recovered.record_measurement({"cell": 2}, [0.2])
        recovered.record_measurement({"cell": 3}, [0.3])
        again = RunJournal(path, resume=True)
        assert len(again) == 3
        assert again.corrupt_lines == 0
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)  # every surviving line parses

    def test_torn_final_line_with_newline_is_trimmed(self, tmp_path):
        """A garbage final line that *did* get its newline is also dropped."""
        path = tmp_path / "run.jsonl"
        RunJournal(path).record_measurement({"cell": 1}, [0.1])
        clean_size = path.stat().st_size
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "measurem\n')
        book = RunJournal(path, resume=True)
        assert len(book) == 1
        assert book.corrupt_lines == 1
        assert path.stat().st_size == clean_size

    def test_malformed_interior_line_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path).record_measurement({"cell": 1}, [0.1])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(json.dumps({"kind": "measurement",
                                     "key": {"cell": 2},
                                     "payload": {"times": [0.2]}}) + "\n")
        with pytest.raises(JournalError, match="malformed"):
            RunJournal(path, resume=True)

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "header", "version": 99}\n')
        with pytest.raises(JournalError, match="version"):
            RunJournal(path, resume=True)

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "surprise", "key": {"cell": 1}}\n')
        with pytest.raises(JournalError, match="unknown entry kind"):
            RunJournal(path, resume=True)

    def test_failure_rows_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        row = FailureRow(label="m@batch=2", stage="run",
                         error_type="ExecutionError", message="x", attempts=2)
        RunJournal(path).record_failure({"cell": 1}, row)
        entry = RunJournal(path, resume=True).get(cell=1)
        assert entry.kind == "failure"
        assert entry.to_failure_row() == row

    def test_to_failure_row_guards_kind(self):
        entry = JournalEntry(kind="measurement", key={}, payload={})
        with pytest.raises(JournalError):
            entry.to_failure_row()

    def test_open_journal_normalises(self, tmp_path):
        assert open_journal(None) is None
        book = RunJournal(tmp_path / "a.jsonl")
        assert open_journal(book) is book
        opened = open_journal(tmp_path / "a.jsonl")
        assert isinstance(opened, RunJournal)


class TestSweepResume:
    def test_interrupted_sweep_resumes_without_remeasuring(
            self, tmp_path, monkeypatch):
        """Acceptance: kill a sweep partway; the restart re-measures zero
        completed cells and finishes only the missing ones."""
        path = tmp_path / "run.jsonl"
        measured = []

        def stub(model, batch, image_size, backend,
                 repeats, warmup, **kwargs):
            if batch == 4:
                raise KeyboardInterrupt  # the campaign is killed here
            measured.append(batch)
            return SweepPoint(model=model, batch=batch, image_size=8,
                              times=(0.001 * batch,))

        monkeypatch.setattr(sweeps_mod, "_time_config", stub)
        with pytest.raises(KeyboardInterrupt):
            batch_sweep("wrn-40-2", batches=(1, 2, 4, 8), image_size=8,
                        repeats=1, warmup=0, retries=0, journal=RunJournal(path))
        assert measured == [1, 2]

        def healthy(model, batch, image_size, backend,
                    repeats, warmup, **kwargs):
            measured.append(batch)
            return SweepPoint(model=model, batch=batch, image_size=8,
                              times=(0.001 * batch,))

        monkeypatch.setattr(sweeps_mod, "_time_config", healthy)
        result = batch_sweep("wrn-40-2", batches=(1, 2, 4, 8), image_size=8,
                             repeats=1, warmup=0, retries=0, journal=str(path))
        assert measured == [1, 2, 4, 8]  # only 4 and 8 ran the second time
        assert result.resumed == 2
        assert [p.batch for p in result.points] == [1, 2, 4, 8]
        assert result.complete

    def test_recorded_failures_are_sticky_on_resume(
            self, tmp_path, monkeypatch):
        """A cell that failed is replayed as its failure row, not retried —
        resuming a crashy campaign must not re-enter the crash loop."""
        path = tmp_path / "run.jsonl"
        from repro.errors import ExecutionError

        def poisoned(model, batch, image_size, backend,
                     repeats, warmup, **kwargs):
            if batch == 2:
                raise ExecutionError("poisoned configuration")
            return SweepPoint(model=model, batch=batch, image_size=8,
                              times=(0.001,))

        monkeypatch.setattr(sweeps_mod, "_time_config", poisoned)
        first = batch_sweep("wrn-40-2", batches=(1, 2), image_size=8,
                            repeats=1, warmup=0, retries=0, journal=str(path))
        assert len(first.failures) == 1

        def exploding(*args, **kwargs):  # must never be called on resume
            raise AssertionError("cell was re-measured")

        monkeypatch.setattr(sweeps_mod, "_time_config", exploding)
        second = batch_sweep("wrn-40-2", batches=(1, 2), image_size=8,
                             repeats=1, warmup=0, retries=0, journal=str(path))
        assert second.resumed == 2
        (failure,) = second.failures
        assert failure.label == "wrn-40-2@batch=2"

    def test_changed_protocol_does_not_reuse_cells(self, tmp_path, monkeypatch):
        path = tmp_path / "run.jsonl"

        def stub(model, batch, image_size, backend,
                 repeats, warmup, **kwargs):
            return SweepPoint(model=model, batch=batch, image_size=8,
                              times=tuple([0.001] * repeats))

        monkeypatch.setattr(sweeps_mod, "_time_config", stub)
        batch_sweep("wrn-40-2", batches=(1,), image_size=8,
                    repeats=1, warmup=0, journal=str(path))
        # More repeats = a different measurement protocol = a fresh cell.
        result = batch_sweep("wrn-40-2", batches=(1,), image_size=8,
                             repeats=3, warmup=0, journal=str(path))
        assert result.resumed == 0
        assert len(result.points[0].times) == 3

    def test_over_budget_cell_becomes_failure_row(self):
        """Acceptance: an over-budget configuration yields a structured
        failure row; the sweep never aborts."""
        result = batch_sweep("wrn-40-2", batches=(1,), image_size=8,
                             repeats=1, warmup=0, retries=0,
                             memory_budget_bytes=1)
        assert result.points == ()
        (failure,) = result.failures
        assert failure.error_type == "MemoryBudgetError"
        assert "budget" in failure.message

    def test_degrade_mode_never_reports_batch_1_as_the_swept_batch(self):
        """A cell *is* its batch: over budget is a failure row, never a
        batch-1 measurement (that retry lives in bench/quant.py only)."""
        from repro.models import zoo
        from repro.runtime.session import InferenceSession

        probe = InferenceSession(zoo.build("wrn-40-2", batch=1, image_size=8))
        result = batch_sweep(
            "wrn-40-2", batches=(1, 4), image_size=8, repeats=1, warmup=0,
            retries=0, memory_budget_bytes=probe.memory_plan.peak_bytes)
        assert [p.batch for p in result.points] == [1]
        (failure,) = result.failures
        assert failure.label == "wrn-40-2@batch=4"
        assert failure.error_type == "MemoryBudgetError"


class TestFigure2Resume:
    def test_second_run_replays_every_cell(self, tmp_path, monkeypatch):
        path = tmp_path / "run.jsonl"
        kwargs = dict(models=("wrn-40-2",), frameworks=("orpheus", "darknet"),
                      repeats=1, warmup=0, image_size=8, retries=0,
                      journal=str(path))
        first = figure2_mod.run_figure2(**kwargs)
        assert first.resumed == 0
        assert first.median_ms("orpheus", "wrn-40-2") is not None
        assert any(e.framework == "darknet" for e in first.exclusions)

        prepares = []
        real_get_adapter = figure2_mod.get_adapter

        def counting_get_adapter(name):
            prepares.append(name)
            return real_get_adapter(name)

        monkeypatch.setattr(figure2_mod, "get_adapter", counting_get_adapter)
        second = figure2_mod.run_figure2(**kwargs)
        assert prepares == []  # zero cells re-measured
        assert second.resumed == 2  # one measurement + one exclusion
        assert (second.median_ms("orpheus", "wrn-40-2")
                == first.median_ms("orpheus", "wrn-40-2"))
        assert any(e.framework == "darknet" for e in second.exclusions)
