"""Ablation: latency scaling with batch size and input resolution.

Batching amortises per-layer dispatch and improves GEMM shapes (per-item
cost falls below the batch-1 cost); resolution scales convolution work
quadratically while the classifier stays fixed.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_rounds
from repro.bench.sweeps import batch_sweep, resolution_sweep
from repro.bench.workloads import model_input
from repro.models import zoo
from repro.runtime.session import InferenceSession


@pytest.mark.parametrize("batch", [1, 2, 4, 8])
def test_batch_scaling(benchmark, batch):
    graph = zoo.build("wrn-40-2", batch=batch)
    session = InferenceSession(graph, threads=1)
    feed = {"input": model_input("wrn-40-2", batch=batch)}
    session.run(feed)
    benchmark.group = "sweep:batch wrn-40-2"
    benchmark.extra_info["batch"] = batch
    benchmark.pedantic(session.run, args=(feed,),
                       rounds=bench_rounds(), warmup_rounds=1)


@pytest.mark.parametrize("size", [96, 160, 224])
def test_resolution_scaling(benchmark, size):
    graph = zoo.build("mobilenet-v1", image_size=size)
    session = InferenceSession(graph, threads=1)
    feed = {"input": model_input("mobilenet-v1", image_size=size)}
    session.run(feed)
    benchmark.group = "sweep:resolution mobilenet-v1"
    benchmark.extra_info["image_size"] = size
    benchmark.pedantic(session.run, args=(feed,),
                       rounds=bench_rounds(), warmup_rounds=1)


def test_batching_amortises_per_item_cost():
    result = batch_sweep("wrn-40-2", batches=(1, 8), repeats=3)
    print(f"\n  per-item: batch 1 = {result.points[0].per_item_ms:.2f} ms, "
          f"batch 8 = {result.points[1].per_item_ms:.2f} ms")
    assert result.points[1].per_item_ms < result.points[0].per_item_ms * 1.05


@pytest.fixture(scope="module")
def wrn_batch():
    return batch_sweep("wrn-40-2", batches=(1, 2), image_size=16,
                       repeats=2, warmup=1)


def test_larger_batch_takes_longer_total(wrn_batch):
    assert wrn_batch.points[1].median > wrn_batch.points[0].median * 1.2


def test_scaling_factor(wrn_batch):
    assert 0.2 < wrn_batch.scaling_factor() < 2.0


def test_latency_grows_with_resolution():
    result = resolution_sweep("wrn-40-2", image_sizes=(16, 32),
                              repeats=2, warmup=1)
    assert result.points[1].median > result.points[0].median
