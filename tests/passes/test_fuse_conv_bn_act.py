"""Conv+BN+activation blocks through ``default_pipeline()``.

``FoldBatchNorm`` then ``FuseConvActivation`` collapse the standard
``Conv -> BN -> Relu/Relu6`` block of every zoo model into one fused Conv
node; these tests pin the block-level behaviour — what fuses, and which
boundaries (a shared pre-BN value, a graph output) must block it.
"""

import numpy as np

from repro.ir.builder import GraphBuilder
from repro.passes import default_pipeline
from repro.runtime.session import InferenceSession
from tests.conftest import tiny_classifier


def _conv_bn_act_graph(activation="relu", seed=3):
    builder = GraphBuilder("triple", seed=seed)
    x = builder.input("input", (1, 3, 10, 10))
    y = builder.conv(x, 8, 3, pad=1)
    y = builder.batch_norm(y)
    y = builder.relu6(y) if activation == "relu6" else builder.relu(y)
    y = builder.conv(y, 4, 3, pad=1)
    y = builder.batch_norm(y)
    y = builder.relu(y)
    builder.output(y)
    return builder.finish()


def _run(graph, x):
    session = InferenceSession(graph, backend="orpheus", optimize=False)
    return session.run({"input": x})


def test_fused_node_carries_activation_attr():
    graph = default_pipeline().run(_conv_bn_act_graph("relu6"))
    convs = graph.nodes_by_type("Conv")
    assert [node.attrs.as_dict()["activation"] for node in convs] == \
        ["relu6", "relu"]
    assert [node.op_type for node in graph.nodes] == ["Conv", "Conv"]


def test_shared_pre_bn_value_blocks_fusion(rng):
    builder = GraphBuilder("shared", seed=0)
    x = builder.input("input", (1, 3, 8, 8))
    y = builder.conv(x, 4, 3, pad=1)
    z = builder.batch_norm(y)
    z = builder.relu(z)
    # The conv output feeds a second consumer: folding BN into the conv
    # would change that consumer's value.
    w = builder.relu(y)
    builder.output(builder.add(z, w))
    graph = builder.finish()
    optimized = default_pipeline().run(graph)
    assert sorted(node.op_type for node in optimized.nodes) == \
        sorted(node.op_type for node in graph.nodes)
    (conv,) = optimized.nodes_by_type("Conv")
    assert "activation" not in conv.attrs


def test_graph_output_boundary_blocks_fusion(rng):
    builder = GraphBuilder("boundary", seed=0)
    x = builder.input("input", (1, 3, 8, 8))
    y = builder.conv(x, 4, 3, pad=1)
    z = builder.batch_norm(y)
    builder.output(y)  # the pre-BN value is itself a graph output ...
    builder.output(builder.relu(z))  # ... and so is the activated one
    graph = builder.finish()
    optimized = default_pipeline().run(graph)
    # Folding the BN (or fusing the Relu) into the conv would rewrite a
    # value the caller asked for: the block stays as it was.
    assert [node.op_type for node in optimized.nodes] == \
        ["Conv", "BatchNormalization", "Relu"]
    feed = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
    want, got = _run(graph, feed), _run(optimized, feed)
    for name in graph.output_names:
        np.testing.assert_array_equal(got[name], want[name])


def test_tiny_classifier_end_to_end_equivalence(rng):
    graph = tiny_classifier()
    x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
    optimized = default_pipeline().run(graph)
    assert any("activation" in node.attrs
               for node in optimized.nodes_by_type("Conv"))
    (name,) = graph.output_names
    np.testing.assert_allclose(
        _run(optimized, x)[name], _run(graph, x)[name], rtol=1e-4, atol=1e-5)
