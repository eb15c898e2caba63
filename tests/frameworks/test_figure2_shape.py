"""Figure 2 harness bookkeeping, checked on affordable configurations.

The full-resolution five-model grid and the paper's *qualitative* claims
(who is faster than whom) are checked by ``benchmarks/test_figure2.py``,
outside tier-1, because their verdicts need a real clock; here we lock
down what does not: exclusions, completeness, rendering.
"""

import pytest

from repro.bench.figure2 import run_figure2
from repro.errors import FrameworkUnavailableError
from repro.frameworks import base as frameworks_base
from repro.frameworks import get_adapter
from repro.frameworks.base import FrameworkAdapter, PreparedModel, register_adapter


@pytest.fixture(scope="module")
def small_grid():
    """Orpheus/TVM/PyTorch on the two small models + darknet/tflite rules."""
    return run_figure2(
        models=("wrn-40-2", "mobilenet-v1"),
        frameworks=("orpheus", "tvm", "pytorch", "darknet", "tflite"),
        repeats=5, warmup=1,
    )


class TestHarnessBookkeeping:
    def test_exclusions_recorded_with_reasons(self, small_grid):
        excluded = {(e.framework, e.model) for e in small_grid.exclusions}
        assert ("darknet", "wrn-40-2") in excluded
        assert ("darknet", "mobilenet-v1") in excluded
        assert ("tflite", "wrn-40-2") in excluded
        for exclusion in small_grid.exclusions:
            assert exclusion.reason

    def test_measured_cells_are_complete(self, small_grid):
        for model in small_grid.models:
            for framework in ("orpheus", "tvm", "pytorch"):
                median = small_grid.median_ms(framework, model)
                assert median is not None
                assert 0 < small_grid.best_ms(framework, model) <= median

    def test_table_renders_with_exclusion_notes(self, small_grid):
        text = small_grid.table()
        assert "Figure 2" in text
        assert "excluded darknet/wrn-40-2" in text
        assert "winner" in text

    def test_csv_has_header_and_rows(self, small_grid):
        lines = small_grid.csv().splitlines()
        assert lines[0].startswith("model,")
        assert len(lines) == 1 + len(small_grid.models)

    def test_speedup_helper(self, small_grid):
        ratio = small_grid.speedup("wrn-40-2", "orpheus", baseline="pytorch")
        assert ratio is not None and ratio > 0
        assert small_grid.speedup("wrn-40-2", "darknet", "orpheus") is None


class _ScriptedModel(PreparedModel):
    """`time` hands out scripted samples and logs every call it receives."""

    def __init__(self, name, samples, log):
        self.name, self.samples, self.log = name, iter(samples), log

    def run(self, x):
        self.log.append((self.name, "warmup"))
        return x

    def time(self, x, repeats, warmup):
        self.log.append((self.name, "time", repeats, warmup))
        return [next(self.samples) for _ in range(repeats)]


class _ScriptedAdapter(FrameworkAdapter):
    def __init__(self, name, samples, log):
        self.name = self.display_name = name
        self.samples, self.log = samples, log

    def prepare(self, model_name, batch=1, image_size=None, threads=1,
                engine_cache=None):
        return _ScriptedModel(self.name, self.samples, self.log)


class TestRoundRobin:
    def test_grid_records_scripted_samples_in_interleaved_order(self):
        """Each round times every framework once (repeats=1, warmup=0 per
        call) before the next round starts, and the grid holds exactly
        the samples `time` returned — overhead and all, nothing re-timed."""
        log = []
        scripts = {"scripted-a": (0.25, 0.5, 1.0), "scripted-b": (3.0, 2.0, 1.5)}
        for name, samples in scripts.items():
            register_adapter(_ScriptedAdapter(name, samples, log))
        try:
            grid = run_figure2(
                models=("wrn-40-2",), frameworks=tuple(scripts),
                repeats=3, warmup=1, image_size=8)
        finally:
            for name in scripts:
                del frameworks_base._ADAPTERS[name]
        assert {m.framework: m.times for m in grid.measurements} == scripts
        assert log == [
            ("scripted-a", "warmup"), ("scripted-b", "warmup"),
            *[(name, "time", 1, 0) for _ in range(3) for name in scripts],
        ]
        assert grid.median_ms("scripted-a", "wrn-40-2") == 500.0
        assert grid.winner("wrn-40-2") == "scripted-a"


class TestQualitativeClaims:
    """The one Section III observation that needs no clock.

    The six that compare measured times live in
    ``benchmarks/test_figure2.py``; their structural twins (which kernels
    and graph mode each simulated framework uses) are in
    ``tests/frameworks/test_adapters.py``.
    """

    def test_tflite_excluded_from_single_thread_grid(self):
        with pytest.raises(FrameworkUnavailableError):
            get_adapter("tflite").prepare("mobilenet-v1", threads=1)


class TestChartRendering:
    def test_chart_bars_and_exclusions(self, small_grid):
        text = small_grid.chart()
        assert "Figure 2" in text
        assert "#" in text
        assert "<- fastest" in text
        assert "(excluded — see notes)" in text

    def test_chart_has_one_section_per_model(self, small_grid):
        text = small_grid.chart()
        for model in small_grid.models:
            assert f"\n{model}\n" in text

    def test_bar_lengths_track_times(self, small_grid):
        text = small_grid.chart()
        # Within each model section the slowest framework draws the longest
        # bar (bars are scaled per model).

        def check(bars, model):
            if not bars or model is None:
                return
            slowest = max(
                bars, key=lambda fw: small_grid.median_ms(fw, model))
            assert bars[slowest] == max(bars.values()), model
            assert all(count >= 1 for count in bars.values())

        current_model, section = None, {}
        for line in text.splitlines():
            stripped = line.strip()
            if stripped in small_grid.models:
                check(section, current_model)
                current_model, section = stripped, {}
            elif "|#" in line and current_model:
                name = line.split("|")[0].strip()
                section[name] = line.count("#")
        check(section, current_model)
