"""CLI: quantize / analyze / compare subcommands."""

import pytest

from repro.cli import main


class TestAnalyze:
    def test_analyze_zoo_model(self, capsys):
        assert main(["analyze", "wrn-40-2"]) == 0
        out = capsys.readouterr().out
        assert "MMACs" in out
        assert "energy proxy" in out
        assert "Conv" in out

    def test_analyze_unoptimized(self, capsys):
        assert main(["analyze", "wrn-40-2", "--no-optimize"]) == 0


class TestQuantize:
    def test_quantize_roundtrip_through_cli(self, tmp_path, capsys):
        path = str(tmp_path / "wrn_int8.onnx")
        assert main(["quantize", "wrn-40-2", path, "--batches", "2"]) == 0
        out = capsys.readouterr().out
        assert "quantized 40 convs" in out
        # The quantized file is real ONNX our own runtime can execute.
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "argmax" in out

    def test_quantize_percentile_observer(self, tmp_path):
        path = str(tmp_path / "wrn_p.onnx")
        assert main(["quantize", "wrn-40-2", path, "--batches", "2",
                     "--observer", "percentile"]) == 0


class TestCompare:
    def test_compare_backends(self, capsys):
        assert main(["compare", "wrn-40-2", "orpheus", "winograd",
                     "--repeats", "2", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "orpheus vs winograd" in out
        assert "total:" in out

    def test_compare_unknown_backend_fails(self):
        with pytest.raises(Exception):
            main(["compare", "wrn-40-2", "orpheus", "nonsense",
                  "--repeats", "1"])


class TestErrorPaths:
    def test_unknown_model_fails_cleanly(self):
        from repro.errors import ModelZooError
        with pytest.raises(ModelZooError, match="unknown model"):
            main(["run", "not-a-model"])

    def test_unknown_backend_fails_cleanly(self):
        from repro.errors import BackendError
        with pytest.raises(BackendError, match="unknown backend"):
            main(["run", "wrn-40-2", "--backend", "nonexistent"])

    def test_conformance_all(self, capsys):
        assert main(["conformance", "orpheus"]) == 0
        out = capsys.readouterr().out
        assert "21/21" in out

    def test_inspect_dot_output(self, tmp_path, capsys):
        path = str(tmp_path / "g.dot")
        assert main(["inspect", "wrn-40-2", "--dot", path]) == 0
        with open(path, encoding="utf-8") as handle:
            assert handle.readline().startswith("digraph")

    def test_profile_trace_output(self, tmp_path, capsys):
        import json
        path = str(tmp_path / "t.json")
        assert main(["profile", "wrn-40-2", "--repeats", "1",
                     "--trace", path]) == 0
        with open(path, encoding="utf-8") as handle:
            assert "traceEvents" in json.load(handle)
