"""Ablation: activation memory planning — release at last use vs none.

Times the planner itself (it runs at session prepare and engine load, so
it must be cheap) and reports the footprint reduction per model — peak
live activations against the sum of all activations, the "memory
footprint" optimisation target from the paper's introduction.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_rounds, scaled_image_size
from repro.analysis import footprint
from repro.ir.shape_inference import infer_shapes
from repro.models import zoo
from repro.passes import default_pipeline
from repro.runtime.memory_planner import plan_memory

_MODELS = ("wrn-40-2", "mobilenet-v1", "resnet18", "resnet50")


@pytest.mark.parametrize("model", _MODELS)
def test_planner_runtime(benchmark, model):
    graph = default_pipeline().run(
        zoo.build(model, image_size=scaled_image_size(model)))
    value_types = infer_shapes(graph)
    schedule = graph.toposort()
    benchmark.group = "memory-planner"
    benchmark.extra_info["model"] = model
    plan = benchmark.pedantic(
        plan_memory, args=(graph, value_types, schedule),
        rounds=bench_rounds(), warmup_rounds=1)
    assert plan.peak_bytes <= plan.total_activation_bytes


def test_footprint_reduction_table():
    print()
    for model in _MODELS:
        graph = default_pipeline().run(
            zoo.build(model, image_size=scaled_image_size(model)))
        report = footprint(graph, model)
        print("  " + report.summary())
        saving = 1 - (report.peak_live_bytes
                      / report.activation_bytes_unplanned)
        assert saving > 0.5, model
