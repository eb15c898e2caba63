"""Benchmark harness machinery: reporting, workloads, runner, layer race."""

import numpy as np
import pytest

from repro.bench.harness import RunStats, time_model
from repro.bench.layerwise import ConvCase, race_conv_impls
from repro.bench.reporting import format_csv, format_table
from repro.bench.table1 import render_table1, table1_csv, table1_rows
from repro.bench.workloads import (
    calibration_batches,
    model_input,
    synthetic_image_batch,
)
from repro.runtime.session import InferenceSession
from tests.conftest import tiny_classifier


class TestReporting:
    def test_table_alignment_and_none(self):
        text = format_table(
            ["name", "ms"], [["a", 1.5], ["bb", None]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.50" in text
        assert "-" in lines[-1]

    def test_table_empty_rows(self):
        text = format_table(["x", "y"], [])
        assert "x" in text

    def test_csv_quoting(self):
        text = format_csv(["a"], [["with,comma"], ['with"quote']])
        lines = text.splitlines()
        assert lines[1] == '"with,comma"'
        assert lines[2] == '"with""quote"'

    def test_csv_none_empty(self):
        assert format_csv(["a", "b"], [[1, None]]).splitlines()[1] == "1,"


class TestWorkloads:
    def test_synthetic_batch_shape_and_dtype(self):
        x = synthetic_image_batch((2, 3, 16, 16))
        assert x.shape == (2, 3, 16, 16)
        assert x.dtype == np.float32

    def test_normalised_statistics(self):
        x = synthetic_image_batch((4, 3, 64, 64))
        # ImageNet normalisation maps [0,1] to roughly [-2.2, 2.7].
        assert -3 < x.min() < 0 < x.max() < 3

    def test_seeded(self):
        a = synthetic_image_batch((1, 3, 8, 8), seed=1)
        b = synthetic_image_batch((1, 3, 8, 8), seed=1)
        c = synthetic_image_batch((1, 3, 8, 8), seed=2)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_model_input_uses_zoo_shape(self):
        assert model_input("wrn-40-2").shape == (1, 3, 32, 32)
        assert model_input("resnet18", image_size=64).shape == (1, 3, 64, 64)

    def test_calibration_batches_distinct(self):
        batches = calibration_batches("wrn-40-2", count=3)
        assert len(batches) == 3
        assert not np.array_equal(batches[0], batches[1])

    def test_non_rgb_channels_skip_normalisation(self):
        x = synthetic_image_batch((1, 1, 8, 8))
        assert 0 <= x.min() and x.max() <= 1


class TestHarness:
    def test_run_stats(self):
        stats = RunStats("x", (0.2, 0.1, 0.3))
        assert stats.median == pytest.approx(0.2)
        assert stats.best == pytest.approx(0.1)
        assert stats.stdev > 0
        assert "median" in stats.summary()

    def test_time_session(self, rng):
        session = InferenceSession(tiny_classifier())
        feed = {"input": rng.standard_normal((1, 3, 8, 8)).astype(np.float32)}
        stats = RunStats("run", tuple(session.time(feed, repeats=3, warmup=1)))
        assert len(stats.times) == 3
        assert stats.best <= stats.median

    def test_time_model_end_to_end(self):
        stats = time_model("wrn-40-2", repeats=2, warmup=1, image_size=16)
        assert stats.median > 0
        assert "wrn-40-2" in stats.label


class TestTable1Rendering:
    def test_rows_match_score_matrix(self):
        rows = table1_rows()
        assert len(rows) == 5
        assert rows[0][0] == "Low-level modifications"
        assert rows[0][-1] == 3  # Orpheus

    def test_render_contains_all_frameworks(self):
        text = render_table1()
        for name in ("TF-Lite", "PyTorch", "DarkNet", "TVM", "Orpheus"):
            assert name in text

    def test_rationale_toggle(self):
        assert "Rationale" not in render_table1()
        assert "Rationale" in render_table1(with_rationale=True)

    def test_csv(self):
        lines = table1_csv().splitlines()
        assert lines[0].startswith("criterion,")
        assert len(lines) == 6


class TestLayerRace:
    @pytest.fixture(scope="class")
    def result(self):
        cases = (
            ConvCase("small 3x3", (1, 8, 8, 8), (8, 8, 3, 3)),
            ConvCase("pointwise", (1, 8, 8, 8), (4, 8, 1, 1), pad=0),
            ConvCase("depthwise", (1, 8, 8, 8), (8, 1, 3, 3), group=8),
        )
        return race_conv_impls(cases=cases, repeats=1)

    def test_every_cell_filled_or_marked_inapplicable(self, result):
        for case in result.cases:
            for impl in result.impls:
                assert (case.label, impl) in result.times

    def test_winograd_inapplicable_to_pointwise(self, result):
        assert result.times[("pointwise", "winograd")] is None

    def test_depthwise_only_direct_dw(self, result):
        assert result.times[("depthwise", "direct_dw")] is not None
        assert result.times[("depthwise", "direct")] is None
        assert result.times[("depthwise", "perchannel_gemm_dw")] is not None
        assert result.times[("small 3x3", "perchannel_gemm_dw")] is None

    def test_best_impl_is_fastest(self, result):
        best = result.best_impl("small 3x3")
        best_time = result.times[("small 3x3", best)]
        for impl in result.impls:
            t = result.times[("small 3x3", impl)]
            if t is not None:
                assert best_time <= t

    def test_table_and_csv_render(self, result):
        assert "best" in result.table()
        assert result.csv().splitlines()[0].startswith("layer,")
