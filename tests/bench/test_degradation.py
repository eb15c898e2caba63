"""Graceful bench degradation: sweeps complete and report failures as rows."""

import numpy as np
import pytest

from repro.bench import figure2 as figure2_mod
from repro.bench import sweeps as sweeps_mod
from repro.bench.harness import FailureRow, run_guarded
from repro.bench.sweeps import batch_sweep
from repro.errors import ExecutionError, FrameworkUnavailableError, OrpheusError
from repro.frameworks import base as frameworks_base
from repro.frameworks.base import FrameworkAdapter, PreparedModel, register_adapter


class TestRunGuarded:
    def test_success_passes_through(self):
        result, failure = run_guarded(lambda: 42, label="ok")
        assert result == 42 and failure is None

    def test_failure_becomes_row_after_bounded_retry(self):
        calls = []

        def always_broken():
            calls.append(1)
            raise ExecutionError("kaput")

        result, failure = run_guarded(always_broken, label="cell",
                                      stage="run", retries=2)
        assert result is None
        assert len(calls) == 3  # initial + 2 retries
        assert failure == FailureRow(
            label="cell", stage="run", error_type="ExecutionError",
            message="kaput", attempts=3)
        assert "FAILED cell" in str(failure)

    def test_retry_can_save_a_flaky_call(self):
        state = {"calls": 0}

        def flaky():
            state["calls"] += 1
            if state["calls"] < 2:
                raise ExecutionError("transient")
            return "ok"

        result, failure = run_guarded(flaky, label="cell", retries=1)
        assert result == "ok" and failure is None

    def test_non_orpheus_errors_propagate(self):
        def broken():
            raise RuntimeError("programming error")

        with pytest.raises(RuntimeError):
            run_guarded(broken, label="cell")

    def test_reraise_bypasses_the_boundary(self):
        def unavailable():
            raise FrameworkUnavailableError("not shipped")

        with pytest.raises(FrameworkUnavailableError):
            run_guarded(unavailable, label="cell",
                        reraise=(FrameworkUnavailableError,))

    def test_reraise_reports_attempts_consumed(self):
        """Regression: retries spent before a reraise'd exception escapes
        must be visible on the exception, not silently swallowed."""
        calls = []

        def degrades_to_unavailable():
            calls.append(1)
            if len(calls) < 2:
                raise ExecutionError("transient")
            raise FrameworkUnavailableError("gave up for real")

        with pytest.raises(FrameworkUnavailableError) as excinfo:
            run_guarded(degrades_to_unavailable, label="cell", retries=3,
                        reraise=(FrameworkUnavailableError,))
        assert len(calls) == 2
        assert excinfo.value.attempts_consumed == 2

    def test_reraise_on_first_attempt_counts_one(self):
        def unavailable():
            raise FrameworkUnavailableError("not shipped")

        with pytest.raises(FrameworkUnavailableError) as excinfo:
            run_guarded(unavailable, label="cell", retries=0,
                        reraise=(FrameworkUnavailableError,))
        assert excinfo.value.attempts_consumed == 1


class _PoisonedPrepare(FrameworkAdapter):
    name = "poisoned-prepare"
    display_name = "Poisoned (prepare)"

    def prepare(self, model_name, batch=1, image_size=None,
                engine_cache=None):
        raise ExecutionError("adapter exploded during prepare")


class _CrashingModel(PreparedModel):
    def __init__(self):
        self.runs = 0

    def run(self, x):
        self.runs += 1
        if self.runs > 1:  # survive warmup, die during timing
            raise ExecutionError("kernel chain exhausted mid-benchmark")
        return x

    def time(self, x, repeats, warmup):
        for _ in range(warmup + repeats):
            self.run(x)
        return [0.001] * repeats


class _PoisonedRun(FrameworkAdapter):
    name = "poisoned-run"
    display_name = "Poisoned (run)"

    def prepare(self, model_name, batch=1, image_size=None,
                engine_cache=None):
        return _CrashingModel()


@pytest.fixture
def poisoned_adapters():
    adapters = [register_adapter(_PoisonedPrepare()),
                register_adapter(_PoisonedRun())]
    yield adapters
    for adapter in adapters:
        del frameworks_base._ADAPTERS[adapter.name]


class TestFigure2Degradation:
    def test_sweep_with_failing_adapters_completes(self, poisoned_adapters):
        """Acceptance: a deliberately failing adapter yields structured
        failure rows, not an aborted sweep."""
        grid = figure2_mod.run_figure2(
            models=("wrn-40-2",),
            frameworks=("orpheus", "poisoned-prepare", "poisoned-run"),
            repeats=2, warmup=1, image_size=8, retries=1)
        # The healthy framework was measured.
        assert grid.median_ms("orpheus", "wrn-40-2") is not None
        # Both poisoned frameworks degraded into failure rows.
        assert not grid.complete
        by_label = {f.label: f for f in grid.failures}
        prepare_row = by_label["poisoned-prepare/wrn-40-2"]
        assert prepare_row.stage == "prepare"
        assert prepare_row.error_type == "ExecutionError"
        assert prepare_row.attempts == 2  # bounded retry happened
        run_row = by_label["poisoned-run/wrn-40-2"]
        assert run_row.stage in ("warmup", "run")

    def test_failures_render_in_table_notes(self, poisoned_adapters):
        grid = figure2_mod.run_figure2(
            models=("wrn-40-2",),
            frameworks=("orpheus", "poisoned-prepare"),
            repeats=1, warmup=0, image_size=8, retries=0)
        text = grid.table()
        assert "FAILED poisoned-prepare/wrn-40-2" in text

    def test_exclusions_still_distinct_from_failures(self, poisoned_adapters):
        grid = figure2_mod.run_figure2(
            models=("wrn-40-2",),
            frameworks=("orpheus", "darknet", "poisoned-prepare"),
            repeats=1, warmup=0, image_size=8, retries=0)
        assert any(e.framework == "darknet" for e in grid.exclusions)
        assert all(f.label.startswith("poisoned") for f in grid.failures)


class TestSweepDegradation:
    def test_one_poisoned_point_yields_failure_row(self, monkeypatch):
        real = sweeps_mod._time_config

        def sometimes_broken(model, batch, *args, **kwargs):
            if batch == 2:
                raise ExecutionError("poisoned configuration")
            return real(model, batch, *args, **kwargs)

        monkeypatch.setattr(sweeps_mod, "_time_config", sometimes_broken)
        result = batch_sweep("wrn-40-2", batches=(1, 2, 4), image_size=8,
                             repeats=1, warmup=0, retries=0)
        assert [p.batch for p in result.points] == [1, 4]
        assert not result.complete
        (failure,) = result.failures
        assert failure.label == "wrn-40-2@batch=2"
        assert "FAILED" in result.table()

    def test_sweep_rejects_bad_protocol_up_front(self):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            batch_sweep("wrn-40-2", batches=(1,), repeats=0)

    def test_scaling_factor_guards_degraded_sweeps(self):
        from repro.bench.sweeps import SweepPoint, SweepResult
        result = SweepResult(
            model="m", parameter="batch",
            points=(SweepPoint("m", 1, 8, (0.1,)),),
            failures=(FailureRow("m@batch=2", "run", "ExecutionError",
                                 "x", 1),))
        with pytest.raises(ValueError, match="scaling_factor"):
            result.scaling_factor()


class TestTable1Degradation:
    def test_missing_framework_scores_degrade_to_notes(self, monkeypatch):
        from repro.bench import table1 as table1_mod
        crippled = {k: dict(v) for k, v in table1_mod.SCORES.items()}
        del crippled["TVM"]["Model interoperability"]
        monkeypatch.setattr(table1_mod, "SCORES", crippled)
        failures = table1_mod.table1_failures()
        assert any("TVM" in f.label for f in failures)
        text = table1_mod.render_table1()
        assert "FAILED table1/TVM" in text
        assert "Model interoperability" in text  # criterion row still renders

    def test_intact_table_reports_no_failures(self):
        from repro.bench.table1 import render_table1, table1_failures
        assert table1_failures() == []
        assert "FAILED" not in render_table1()
