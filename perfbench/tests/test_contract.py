"""BENCHMARK.json and what the runner prints agree, name for name."""

import json
import os
import re
import subprocess
import sys

from perfbench import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=spec.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_within_the_contract():
    document = spec.load_benchmark()
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in document["workloads"]] == list(spec.WORKLOADS)
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in document[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for section in ("end_to_end", "per_layer"):
        for entry in document[section]:
            assert UNIT.fullmatch(entry["unit"])
            assert entry["better"] in ("lower", "higher")
    assert all(0 < e["bound"] <= 0.25 for e in document["end_to_end"])
    setup = next(e for e in document["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in document["end_to_end"])
    assert 2 <= len(document["workloads"]) <= 8
    assert len(document["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in document["workloads"])
    assert os.path.getsize(spec.BENCHMARK_JSON) <= 64 * 1024


def test_timed_run_prints_exactly_the_end_to_end_metrics():
    result = _run("--workload", "infer-wrn", "--seed", "11",
                  "--seconds", "0.5", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = spec.metric_units(spec.load_benchmark(), "end_to_end")
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == units
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


# Between them these three enter every layer and every named kernel row.
TRACED = ("deploy-cold-mobilenet", "serve-proc-sparse", "infer-resnet50")


def test_traced_runs_print_exactly_the_per_layer_metrics():
    units = spec.metric_units(spec.load_benchmark(), "per_layer")
    exercised = set()
    for workload in TRACED:
        result = _run("--workload", workload, "--seed", "11",
                      "--seconds", "0.5", "--trace", "1")
        assert result["failed"] == 0
        assert {name: entry["unit"]
                for name, entry in result["metrics"].items()} == units
        exercised |= {name for name, entry in result["metrics"].items()
                      if entry["value"] != 0}
        assert os.path.exists(os.path.join(
            spec.OUT_DIR, f"trace-{workload}.json"))
    # Counters that are zero on a healthy run stay zero; everything else in
    # BENCHMARK.json must be produced by some workload.
    idle = {name for name in units if name.startswith((
        "passes.rewrites.", "passes.apply_ms.", "serve.supervisor.",
        "kernels.ms.other", "kernels.calls.other"))} | {
        "runtime.fallbacks", "loadgen.rejected", "loadgen.failed",
        "loadgen.timed_out", "serve.shed_share", "serve.late_share",
        "serve.slo_miss_share"}
    assert set(units) - exercised <= idle
