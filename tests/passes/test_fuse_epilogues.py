"""``FuseEpilogues``: a residual Add [+ Relu|Relu6] becomes a conv epilogue,
and a Relu|Relu6 after a BatchNormalization becomes the BN's activation.

The pass runs in ``lower()`` after quantization and only when optimizing;
these tests pin what fuses, what must not, the lowered node counts, and
that a fused graph computes the unfused graph's output bit for bit.
"""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.errors import OnnxError, ShapeInferenceError, UnsupportedOpError
from repro.ir.builder import GraphBuilder
from repro.ir.node import Node
from repro.ir.shape_inference import infer_shapes
from repro.models import zoo
from repro.onnx import save_model_bytes
from repro.ops.registry import validate_node
from repro.passes import FuseEpilogues, default_pipeline
from repro.runtime.session import InferenceSession, lower
from repro.testing import random_ir_graph


def _residual_block(*, bias=True, tail="relu", skip_shape=None, extra=None):
    """``input -> conv -> Add(., skip) [-> tail]``, lowered by the default
    pipeline; ``skip`` is a second conv of the input, or a constant of
    ``skip_shape``. ``extra`` may add consumers before the output is set."""
    builder = GraphBuilder("block", seed=4)
    x = builder.input("input", (2, 3, 8, 8))
    y = builder.conv(x, 4, 3, pad=1, bias=bias)
    if skip_shape is None:
        skip = builder.conv(x, 4, 1)
    else:
        skip = builder.constant(
            np.random.default_rng(0).standard_normal(skip_shape).astype(np.float32))
    z = builder.add(y, skip)
    if tail:
        z = getattr(builder, tail)(z)
    outputs = extra(builder, y, z) if extra else [z]
    for value in outputs:
        builder.output(value)
    return default_pipeline().run(builder.finish())


def _fused(graph):
    fused = graph.copy()
    count = FuseEpilogues().apply(fused)
    fused.validate()
    return fused, count


def _run(graph):
    x = np.random.default_rng(7).standard_normal(
        graph.inputs[0].shape).astype(np.float32)
    return InferenceSession(graph, "orpheus", optimize=False).run({"input": x})


class TestRewrite:
    @pytest.mark.parametrize("tail", ["", "relu", "relu6"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    def test_add_and_activation_become_the_conv_epilogue(self, bias, tail):
        graph = _residual_block(bias=bias, tail=tail)
        fused, count = _fused(graph)
        assert count == 1
        assert sorted(node.op_type for node in fused.nodes) == ["Conv", "Conv"]
        (residual_conv,) = [n for n in fused.nodes if len(n.inputs) == 4]
        if not bias:
            assert residual_conv.inputs[2] == ""
        assert residual_conv.attrs.get_str("activation", "") == tail
        assert residual_conv.outputs == graph.nodes[-1].outputs
        for name, value in _run(graph).items():
            assert _run(fused)[name].tobytes() == value.tobytes()

    @pytest.mark.parametrize("tail", ["relu", "relu6"])
    def test_batchnorm_takes_the_activation(self, tail):
        builder = GraphBuilder("preact", seed=2)
        x = builder.input("input", (1, 4, 6, 6))
        y = getattr(builder, tail)(builder.batch_norm(x))
        builder.output(builder.conv(y, 4, 3, pad=1))
        graph = default_pipeline().run(builder.finish())
        fused, count = _fused(graph)
        assert count == 1
        assert [node.op_type for node in fused.nodes] == ["BatchNormalization", "Conv"]
        assert fused.nodes[0].attrs.get_str("activation") == tail
        assert not any(name.startswith("clip") for name in fused.initializers)
        (name,) = graph.output_names
        assert _run(fused)[name].tobytes() == _run(graph)[name].tobytes()

    def test_fused_conv_moves_to_the_add(self):
        """The residual may be computed after the conv's old place; the
        conv takes the Add's, so the node list stays topological."""
        graph = _residual_block()
        fused, _ = _fused(graph)
        seen = set(fused.input_names) | set(fused.initializers)
        for node in fused.nodes:
            assert all(name in seen for name in node.present_inputs)
            seen.update(node.outputs)


class TestRefusals:
    # The skip is a constant of the output's shape here: a skip conv would
    # be a legitimate fusion target of its own.

    def test_conv_output_with_a_second_consumer(self):
        graph = _residual_block(skip_shape=(2, 4, 8, 8),
                                extra=lambda b, y, z: [z, b.relu(y)])
        assert _fused(graph)[1] == 0

    def test_conv_output_that_is_a_graph_output(self):
        graph = _residual_block(skip_shape=(2, 4, 8, 8),
                                extra=lambda b, y, z: [z, y])
        assert _fused(graph)[1] == 0

    def test_a_constant_residual_of_the_output_shape_fuses(self):
        assert _fused(_residual_block(skip_shape=(2, 4, 8, 8)))[1] == 1

    def test_conv_that_already_carries_an_activation(self):
        builder = GraphBuilder("act-then-add", seed=1)
        x = builder.input("input", (1, 4, 6, 6))
        y = builder.relu(builder.conv(x, 4, 3, pad=1))
        builder.output(builder.add(y, x))
        graph = default_pipeline().run(builder.finish())
        (conv,) = graph.nodes_by_type("Conv")
        assert conv.attrs.get_str("activation") == "relu"
        assert _fused(graph)[1] == 0

    @pytest.mark.parametrize("skip_shape", [(1, 4, 8, 8), (4, 1, 1), (2, 1, 8, 8)])
    def test_a_broadcasting_add(self, skip_shape):
        graph = _residual_block(tail="", skip_shape=skip_shape)
        fused, count = _fused(graph)
        assert count == 0 and len(fused.nodes) == len(graph.nodes)

    def test_the_same_value_added_to_itself(self):
        builder = GraphBuilder("doubled", seed=1)
        x = builder.input("input", (1, 3, 6, 6))
        y = builder.conv(x, 4, 3, pad=1)
        builder.output(builder.add(y, y))
        assert _fused(default_pipeline().run(builder.finish()))[1] == 0

    def test_relu_after_a_batchnorm_output(self):
        builder = GraphBuilder("bn-out", seed=1)
        x = builder.input("input", (1, 4, 6, 6))
        y = builder.batch_norm(x)
        builder.output(y)
        builder.output(builder.relu(y))
        assert _fused(builder.finish())[1] == 0


class TestInternalForm:
    def test_onnx_export_rejects_a_residual_conv(self):
        fused, _ = _fused(_residual_block())
        with pytest.raises(OnnxError, match="residual"):
            save_model_bytes(fused)
        save_model_bytes(fused, internal=True)

    def test_shape_inference_rejects_a_misshapen_residual(self):
        fused, _ = _fused(_residual_block(tail=""))
        (conv,) = [n for n in fused.nodes if len(n.inputs) == 4]
        fused.initializers["wrong"] = np.zeros((2, 4, 7, 8), np.float32)
        conv.inputs[3] = "wrong"
        with pytest.raises(ShapeInferenceError, match="residual shape"):
            infer_shapes(fused)

    def test_schema_takes_two_to_four_conv_inputs(self):
        for inputs in (["x", "w"], ["x", "w", ""], ["x", "w", "", "r"]):
            validate_node(Node("Conv", inputs, ["y"], name="c"))
        with pytest.raises(UnsupportedOpError, match="expected 2..4"):
            validate_node(Node("Conv", ["x", "w", "b", "r", "s"], ["y"], name="c"))


_ORPHEUS = get_backend("orpheus")

#: (model, image size, nodes after the default pipeline, after lower()).
_LOWERED = (
    ("wrn-40-2", 16, 98, 62),
    ("resnet18", 32, 41, 25),
    ("resnet50", 32, 90, 58),
    ("mobilenet-v1", 32, 31, 31),
    ("squeezenet", 32, 40, 40),
    ("inception-v3", 96, 126, 126),
)


@pytest.mark.parametrize("model,size,pipelined,lowered", _LOWERED,
                         ids=[row[0] for row in _LOWERED])
def test_lowered_zoo_graphs_are_bitwise_the_pipeline_graphs(model, size, pipelined,
                                                            lowered):
    """Exact node counts, and the ``orpheus`` session's output equals an
    unfused session on ``default_pipeline(g)`` bit for bit."""
    graph = zoo.build(model, image_size=size)
    pipeline_graph = default_pipeline().run(graph)
    working, _ = lower(graph, _ORPHEUS, optimize=True)
    assert (len(pipeline_graph.nodes), len(working.nodes)) == (pipelined, lowered)
    x = np.random.default_rng(1).standard_normal(graph.inputs[0].shape).astype(np.float32)
    fused = InferenceSession(graph, "orpheus").run({"input": x})["output"]
    unfused = InferenceSession(pipeline_graph, "orpheus", optimize=False).run(
        {"input": x})["output"]
    assert fused.tobytes() == unfused.tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_random_graphs_are_bitwise_the_pipeline_graphs(seed):
    graph = random_ir_graph(seed)
    working, _ = lower(graph, _ORPHEUS, optimize=True)
    x = np.random.default_rng(seed).standard_normal(
        graph.inputs[0].shape).astype(np.float32)
    (name,) = graph.output_names
    fused = InferenceSession(graph, "orpheus").run({"input": x})[name]
    unfused = InferenceSession(default_pipeline().run(graph), "orpheus",
                               optimize=False).run({"input": x})[name]
    assert fused.tobytes() == unfused.tobytes()


def test_random_graphs_offer_residuals():
    """The generated battery above is not vacuous: some seeds fuse."""
    fused = [sum(len(n.inputs) == 4 for n in lower(random_ir_graph(seed), _ORPHEUS,
                                                     optimize=True)[0].nodes)
             for seed in range(12)]
    assert sum(fused) > 0


def test_unoptimized_and_pipeline_graphs_stay_unfused():
    graph = zoo.build("wrn-40-2", image_size=8)
    working, _ = lower(graph, _ORPHEUS, optimize=False)
    assert len(working.nodes) == len(graph.nodes)
    assert not any(len(n.inputs) == 4 for n in default_pipeline().run(graph).nodes)


def test_int8_lowering_offers_no_residual_to_a_qdq_island():
    working, _ = lower(zoo.build("wrn-40-2", image_size=8), get_backend("int8"),
                       optimize=True)
    assert not [n.name for n in working.nodes
                if n.op_type == "Conv" and len(n.inputs) == 4]
    assert [n for n in working.nodes_by_type("BatchNormalization")
            if n.attrs.get_str("activation", "") == "relu"]
