"""Automatic post-training quantization for ``quantize=True`` backends.

:func:`auto_quantize` is the single choke point both
:class:`~repro.runtime.session.InferenceSession` and
:func:`~repro.engine.compiler.compile_graph` call when the selected
backend carries ``quantize=True`` (the built-in ``int8`` backend): it
calibrates the *optimised* float graph on deterministic synthetic batches
shaped like the graph's inputs, then applies the QDQ transform of
:mod:`repro.quant.quantize`. Nothing is memoised: calibration is
deterministic, so the same graph and knobs give the same ranges on every
call, and each lowering pays for its own.
"""

from __future__ import annotations

import numpy as np

from repro.ir.graph import Graph
from repro.quant.observers import QuantParams
from repro.quant.quantize import QuantizationReport, calibrate, quantize_graph

#: Default number of synthetic calibration batches.
DEFAULT_CALIBRATION_BATCHES = 4


def synthetic_calibration_feeds(
    graph: Graph, batches: int = DEFAULT_CALIBRATION_BATCHES, seed: int = 0,
) -> list[dict[str, np.ndarray]]:
    """Deterministic feed dicts shaped like the graph's float inputs.

    4-D NCHW inputs get the image-statistics generator the benchmark
    harness feeds (so calibrated ranges match benchmarked activations);
    anything else gets seeded standard-normal noise. Symbolic (-1)
    dimensions resolve to 1.
    """
    from repro.bench.workloads import synthetic_image_batch

    feeds: list[dict[str, np.ndarray]] = []
    for index in range(batches):
        feed: dict[str, np.ndarray] = {}
        for value in graph.inputs:
            shape = tuple(1 if dim < 0 else dim for dim in value.shape)
            if len(shape) == 4:
                array = synthetic_image_batch(shape, seed=seed + index)
            else:
                rng = np.random.default_rng(seed + index)
                array = rng.standard_normal(shape).astype(np.float32)
            feed[value.name] = array
        feeds.append(feed)
    return feeds


def calibrated_ranges(
    graph: Graph,
    observer: str = "minmax",
    batches: int = DEFAULT_CALIBRATION_BATCHES,
    seed: int = 0,
) -> dict[str, QuantParams]:
    """Calibrate ``graph`` on synthetic feeds (deterministic per knobs)."""
    return calibrate(
        graph, synthetic_calibration_feeds(graph, batches=batches, seed=seed),
        observer=observer)


def auto_quantize(
    graph: Graph,
    observer: str = "minmax",
    batches: int = DEFAULT_CALIBRATION_BATCHES,
    seed: int = 0,
) -> tuple[Graph, QuantizationReport]:
    """Calibrate and quantize an already-optimised float graph.

    Returns the quantized graph and the transform report. The input graph
    is never mutated. Deterministic: same graph, same knobs, same result.
    """
    ranges = calibrated_ranges(
        graph, observer=observer, batches=batches, seed=seed)
    return quantize_graph(graph, ranges)
