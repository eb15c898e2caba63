"""CLI: every subcommand runs and prints what it promises."""

import numpy as np
import pytest

from repro.cli import main


class TestInformational:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "wrn-40-2" in out and "inception-v3" in out

    def test_backends(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "orpheus" in out and "gemm=" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestRetiredFlags:
    @pytest.mark.parametrize("argv", [
        ["bench", "table1", "--journal", "x"],
        ["run", "wrn-40-2", "--memory-budget-mb", "64",
         "--budget-mode", "degrade"],
        ["serve", "@loopback", "--autotune-cache", "x"],
    ])
    def test_option_that_changed_no_run_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestInspectRunProfile:
    def test_inspect_zoo_model(self, capsys):
        assert main(["inspect", "wrn-40-2"]) == 0
        out = capsys.readouterr().out
        assert "Conv(" in out and "parameters" in out

    def test_inspect_optimized(self, capsys):
        assert main(["inspect", "wrn-40-2", "--optimize"]) == 0

    def test_run_model(self, capsys):
        assert main(["run", "wrn-40-2"]) == 0
        out = capsys.readouterr().out
        assert "argmax" in out

    def test_run_with_backend(self, capsys):
        assert main(["run", "wrn-40-2", "--backend", "direct",
                     "--no-optimize"]) == 0

    def test_profile(self, capsys):
        assert main(["profile", "wrn-40-2", "--repeats", "2", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "median(ms)" in out and "by op type" in out


class TestConvertAndBench:
    def test_convert_and_inspect_file(self, tmp_path, capsys):
        path = str(tmp_path / "wrn.onnx")
        assert main(["convert", "wrn-40-2", path]) == 0
        assert main(["inspect", path]) == 0
        assert main(["run", path]) == 0

    def test_bench_table1(self, capsys):
        assert main(["bench", "table1", "--rationale"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Rationale" in out

    def test_bench_figure2_tiny(self, capsys, tmp_path):
        csv_path = str(tmp_path / "fig2.csv")
        assert main([
            "bench", "figure2", "--models", "wrn-40-2",
            "--frameworks", "orpheus", "tvm", "darknet",
            "--repeats", "1", "--csv", csv_path]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "excluded darknet/wrn-40-2" in out
        with open(csv_path, encoding="utf-8") as handle:
            assert handle.readline().startswith("model,")
