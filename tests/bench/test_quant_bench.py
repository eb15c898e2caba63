"""The fp32-vs-int8 crossover benchmark and its CLI surfaces."""

import json

import numpy as np
import pytest

import repro.quant  # noqa: F401  (registers quantized kernels)
from repro.bench.harness import RunStats, time_model
from repro.bench.quant import format_quant_bench, measure_quant_crossover
from repro.cli import main


class TestAccuracyProxyPlumbing:
    def test_time_model_reports_max_abs_err(self):
        stats = time_model("squeezenet", backend="int8", image_size=32,
                           repeats=1, warmup=0, accuracy_vs="orpheus")
        assert stats.max_abs_err is not None
        assert 0.0 <= stats.max_abs_err < 1.0
        assert "max|err|" in stats.summary()

    def test_no_reference_means_no_proxy(self):
        stats = time_model("squeezenet", backend="orpheus", image_size=32,
                           repeats=1, warmup=0)
        assert stats.max_abs_err is None
        assert "max|err|" not in stats.summary()

    def test_runstats_default_is_backward_compatible(self):
        stats = RunStats(label="x", times=(1.0,))
        assert stats.max_abs_err is None


class TestCrossoverDocument:
    def test_document_shape_and_format(self):
        document = measure_quant_crossover(
            configs=(("squeezenet", 32),), scenarios=(),
            repeats=1, warmup=0)
        row = document["steady_state"]["squeezenet/32"]
        assert row["fp32_median_ms"] > 0
        assert row["int8_median_ms"] > 0
        assert row["speedup"] == pytest.approx(
            row["fp32_median_ms"] / row["int8_median_ms"], rel=1e-3)
        assert 0.0 <= row["max_abs_err"] < 1.0
        # int8 ships ~4x less weight payload (int8 weights + f32 scales).
        assert row["int8_weight_bytes"] < row["fp32_weight_bytes"]
        assert row["quantization"]["converted_convs"] > 0
        text = format_quant_bench(document)
        assert "squeezenet/32" in text and "max|err|" in text

    def test_budget_scenario_degrades_fp32_not_int8(self):
        # Budget between the int8 and fp32 activation plans: fp32 must
        # retreat to batch 1 while int8 keeps the batch — the structural
        # crossover committed in BENCH_quant.json.
        document = measure_quant_crossover(
            configs=(), scenarios=(("squeezenet", 64, 32, 8 * 2**20),),
            repeats=1, warmup=0)
        row = document["budget_scenarios"]["squeezenet/64/b32/8MiB"]
        assert row["fp32_label"].endswith("/degraded-batch-1")
        assert not row["int8_label"].endswith("/degraded-batch-1")
        assert row["per_image_speedup"] == pytest.approx(
            row["fp32_per_image_ms"] / row["int8_per_image_ms"], rel=1e-3)


class TestCommittedDocument:
    def test_bench_quant_json_meets_acceptance(self):
        with open("BENCH_quant.json", encoding="utf-8") as handle:
            document = json.load(handle)
        assert len(document["steady_state"]) == 6  # every zoo model
        for row in document["steady_state"].values():
            assert row["max_abs_err"] < 0.01
        at_least_2x = [row for row in document["budget_scenarios"].values()
                       if row["per_image_speedup"] >= 2.0]
        assert len({row["model"] for row in at_least_2x}) >= 2


class TestQuantCli:
    def test_bench_quant_runs_and_saves(self, tmp_path, capsys, monkeypatch):
        import repro.bench.quant as quant_bench
        monkeypatch.setattr(quant_bench, "STEADY_STATE_CONFIGS",
                            (("squeezenet", 32),))
        path = str(tmp_path / "quant.json")
        assert main(["bench", "quant", "--repeats", "1",
                     "--no-scenarios", "--save", path]) == 0
        out = capsys.readouterr().out
        assert "fp32 vs int8 crossover" in out
        saved = json.load(open(path, encoding="utf-8"))
        assert "squeezenet/32" in saved["steady_state"]

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "quant", "--models", "not-a-model"])


class TestServePoolAcceptsInt8:
    def test_pool_prepares_int8_workers(self, rng):
        from repro.serve.pool import SessionPool
        from tests.conftest import tiny_classifier
        pool = SessionPool(tiny_classifier(), backends=("int8",),
                           workers=2, batch=1)
        sessions = [pool.session("int8", w) for w in range(pool.workers)]
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        outs = [s.run({"input": x}) for s in sessions]
        for name in outs[0]:
            np.testing.assert_array_equal(outs[0][name], outs[1][name])
