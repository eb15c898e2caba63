"""Figure 2 harness bookkeeping, checked on affordable configurations.

Whether the paper's *qualitative* claims (who is faster than whom) hold
needs a real clock, so tier-1 asserts no verdict's value:
``orpheus bench figure2`` prints them under its table. Here we lock down
what does not need a clock: exclusions, completeness, rendering, and how
a verdict is reached from given times.
"""

import pytest

from repro.bench.figure2 import (
    FAILS,
    HOLDS,
    NOT_MEASURED,
    Exclusion,
    Figure2Result,
    run_figure2,
)
from repro.errors import FrameworkUnavailableError
from repro.frameworks import base as frameworks_base
from repro.frameworks import get_adapter
from repro.frameworks.base import (
    FrameworkAdapter,
    Measurement,
    PreparedModel,
    register_adapter,
)


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

    def prepare(self, model_name, batch=1, image_size=None,
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
    """The one Section III observation that needs no clock: claim (f)."""

    def test_tflite_excluded_from_single_thread_grid(self):
        with pytest.raises(FrameworkUnavailableError):
            get_adapter("tflite").prepare("mobilenet-v1")
        grid = run_figure2(models=("mobilenet-v1",), frameworks=("tflite",),
                           repeats=1, warmup=0, image_size=8)
        assert [(e.framework, e.model) for e in grid.exclusions] == [
            ("tflite", "mobilenet-v1")]
        assert _verdicts(grid)["f"] == HOLDS

def _grid(cells, tflite_excluded=()):
    """A grid from hand-made cells: ``{(framework, model): times in ms}``."""
    measurements = [
        Measurement(framework=framework, model=model,
                    times=tuple(ms / 1e3 for ms in times))
        for (framework, model), times in cells.items()]
    return Figure2Result(
        measurements=measurements,
        exclusions=[Exclusion("tflite", model, "no 1-thread")
                    for model in tflite_excluded],
        models=("wrn-40-2", "mobilenet-v1", "resnet18", "inception-v3"),
        frameworks=("orpheus", "tvm", "pytorch", "darknet", "tflite"),
        repeats=3)


#: The paper's shape: TVM ahead on the small models, Orpheus on
#: Inception-v3, PyTorch behind everywhere and ~3x on MobileNetV1.
_PAPER_SHAPE = {
    ("orpheus", "wrn-40-2"): (20, 20, 20),
    ("tvm", "wrn-40-2"): (19, 19, 19),
    ("pytorch", "wrn-40-2"): (25, 25, 25),
    ("orpheus", "mobilenet-v1"): (50, 50, 50),
    ("tvm", "mobilenet-v1"): (49, 49, 49),
    ("pytorch", "mobilenet-v1"): (140, 140, 140),
    ("orpheus", "resnet18"): (70, 70, 70),
    ("pytorch", "resnet18"): (77, 77, 77),
    ("darknet", "resnet18"): (1700, 1700, 1700),
    ("orpheus", "inception-v3"): (220, 220, 220),
    ("tvm", "inception-v3"): (258, 258, 258),
}


def _verdicts(grid):
    return {claim.label: claim.verdict for claim in grid.claims()}


class TestClaims:
    """Verdicts for claims (a)-(f) from given times, no clock involved."""

    def test_every_claim_holds_on_the_papers_shape(self):
        grid = _grid(_PAPER_SHAPE, tflite_excluded=("wrn-40-2", "resnet18"))
        assert _verdicts(grid) == dict.fromkeys("abcdef", HOLDS)
        claims = {claim.label: claim for claim in grid.claims()}
        assert claims["b"].cell == "tvm/orpheus on mobilenet-v1"  # 0.98
        assert claims["e"].value == pytest.approx(1.7)
        assert claims["f"].value == "2/2"

    def test_tvm_at_1_16x_orpheus_on_wrn_fails_b(self):
        grid = _grid({**_PAPER_SHAPE, ("orpheus", "wrn-40-2"): (10, 10, 10),
                      ("tvm", "wrn-40-2"): (11.6, 11.6, 11.6)})
        (b,) = [claim for claim in grid.claims() if claim.label == "b"]
        assert (b.verdict, b.cell, b.threshold) == (
            FAILS, "tvm/orpheus on wrn-40-2", "< 1.15")
        assert b.value == pytest.approx(1.16)

    def test_each_timing_claim_fails_past_its_threshold(self):
        grid = _grid({
            **_PAPER_SHAPE,
            ("tvm", "inception-v3"): (200, 200, 200),       # (a) 1.10
            ("pytorch", "resnet18"): (69, 69, 69),          # (c) 0.99
            ("pytorch", "mobilenet-v1"): (70, 70, 70),      # (d) 1.40
            ("darknet", "resnet18"): (900, 900, 900),       # (e) 0.9 s
            ("tflite", "mobilenet-v1"): (40, 40, 40),       # (f) timed
        }, tflite_excluded=("wrn-40-2",))
        assert _verdicts(grid) == {**dict.fromkeys("acdef", FAILS), "b": HOLDS}

    def test_depthwise_gap_must_exceed_wrns(self):
        grid = _grid({**_PAPER_SHAPE, ("pytorch", "wrn-40-2"): (60, 60, 60)})
        (d,) = [claim for claim in grid.claims() if claim.label == "d"]
        assert d.value == pytest.approx(2.8)  # above 1.5, below wrn's 3.0
        assert (d.verdict, d.threshold) == (FAILS, "> 1.5, > 3.00 (wrn-40-2)")

    def test_each_claim_keeps_its_statistic(self):
        # One slow round: the best-of-N claims (b, c, e) ignore it, the
        # median claims (a, d) do not.
        noisy = {key: (times[0], times[0] * 3, times[0] * 3)
                 for key, times in _PAPER_SHAPE.items()
                 if key[0] in ("tvm", "pytorch")}
        grid = _grid({**_PAPER_SHAPE, **noisy})
        claims = {claim.label: claim for claim in grid.claims()}
        assert {label: claims[label].statistic for label in "abcde"} == {
            "a": "median", "b": "best-of-3", "c": "best-of-3",
            "d": "median", "e": "best-of-3"}
        assert claims["b"].verdict == claims["c"].verdict == HOLDS
        assert claims["a"].value == pytest.approx(220 / (258 * 3))

    def test_absent_cells_are_not_measured(self):
        empty = _grid({})
        assert _verdicts(empty) == dict.fromkeys("abcdef", NOT_MEASURED)
        assert all(claim.value is None for claim in empty.claims())

    def test_table_prints_one_row_per_claim(self):
        lines = _grid(_PAPER_SHAPE).claims_table().splitlines()
        assert [line[:3] for line in lines[3:]] == [
            f"({label})" for label in "abcdef"]


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
