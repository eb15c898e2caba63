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
        ["run", "wrn-40-2", "--engine", "x"],
        ["compile", "wrn-40-2", "x.oeng", "--autotune-cache", "y"],
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


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    """wrn-40-2 compiled with the CLI defaults, and for the int8 backend."""
    root = tmp_path_factory.mktemp("engines")
    paths = {}
    for backend in ("orpheus", "int8"):
        paths[backend] = str(root / f"wrn-{backend}.oeng")
        assert main(["compile", "wrn-40-2", paths[backend],
                     "--backend", backend]) == 0
    return paths


class TestWarmRunProfile:
    """An .oeng MODEL is a strict warm start with the cold path's output."""

    def test_engine_prints_the_cold_output_line(self, engines, capsys):
        assert main(["run", "wrn-40-2"]) == 0
        cold = capsys.readouterr().out
        assert main(["run", engines["orpheus"]]) == 0
        assert capsys.readouterr().out == cold

    def test_int8_engine_runs_with_no_flags(self, engines, capsys):
        assert main(["run", engines["int8"]]) == 0
        assert "argmax" in capsys.readouterr().out

    def test_flag_the_engine_disagrees_with_exits_1(self, engines, capsys):
        assert main(["run", engines["orpheus"], "--backend", "direct"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("not a loadable engine: config mismatch")

    def test_corrupt_engine_exits_1(self, engines, tmp_path, capsys):
        with open(engines["orpheus"], "rb") as handle:
            data = bytearray(handle.read())
        data[len(data) // 2] ^= 0xFF
        flipped = tmp_path / "flipped.oeng"
        flipped.write_bytes(bytes(data))
        assert main(["run", str(flipped)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("not a loadable engine:")
        assert "checksum" in line

    def test_profile_engine(self, engines, capsys):
        assert main(["profile", engines["orpheus"], "--repeats", "2",
                     "--top", "5"]) == 0
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
        assert all(f"\n({label}) " in out for label in "abcdef")
        with open(csv_path, encoding="utf-8") as handle:
            assert handle.readline().startswith("model,")
