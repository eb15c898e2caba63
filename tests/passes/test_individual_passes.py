"""Each graph pass in isolation: rewrites fire when they should, not otherwise."""

import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.graph import Graph, ValueInfo
from repro.ir.node import Node
from repro.passes import (
    ConstantFolding,
    EliminateDeadNodes,
    EliminateIdentity,
    FoldBatchNorm,
    FoldPadIntoConv,
    FuseConvActivation,
    MaterializeConstants,
)
from repro.runtime.session import InferenceSession


def outputs_match(before: Graph, after: Graph, shape, rtol=1e-4, atol=1e-5):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape).astype(np.float32)
    a = InferenceSession(before, optimize=False).run({"input": x})
    b = InferenceSession(after, optimize=False).run({"input": x})
    for key in a:
        np.testing.assert_allclose(a[key], b[key], rtol=rtol, atol=atol)


class TestEliminateIdentity:
    def build(self):
        builder = GraphBuilder()
        x = builder.input("input", (1, 4))
        y = builder.node("Identity", [x])
        y = builder.relu(y)
        y = builder.dropout(y)
        builder.output(y)
        return builder.finish()

    def test_removes_both_noops(self):
        graph = self.build()
        before = graph.copy()
        count = EliminateIdentity().apply(graph)
        graph.validate()
        assert count == 2
        assert graph.nodes_by_type("Identity") == []
        assert graph.nodes_by_type("Dropout") == []
        outputs_match(before, graph, (1, 4))

    def test_dropout_producing_graph_output(self):
        builder = GraphBuilder()
        x = builder.input("input", (1, 4))
        y = builder.relu(x)
        y = builder.dropout(y)
        builder.output(y)
        graph = builder.finish()
        before = graph.copy()
        assert EliminateIdentity().apply(graph) == 1
        graph.validate()
        assert graph.output_names == before.output_names
        outputs_match(before, graph, (1, 4))

    def test_identity_straight_from_input_kept(self):
        # Identity from graph input to graph output cannot be removed.
        graph = Graph(
            inputs=[ValueInfo("input", (1, 4))],
            outputs=[ValueInfo("out", (1, 4))],
            nodes=[Node("Identity", ["input"], ["out"])],
        )
        assert EliminateIdentity().apply(graph) == 0
        graph.validate()


class TestFoldBatchNorm:
    def build(self, op="Conv"):
        builder = GraphBuilder(seed=2)
        x = builder.input("input", (1, 3, 8, 8))
        if op == "Conv":
            y = builder.conv(x, 6, 3, pad=1, bias=True)
        else:
            y = builder.flatten(x)
            y = builder.dense(y, 6)
        y = builder.batch_norm(y)
        builder.output(builder.relu(y))
        return builder.finish()

    def test_conv_bn_folds(self):
        graph = self.build()
        before = graph.copy()
        assert FoldBatchNorm().apply(graph) == 1
        graph.validate()
        assert graph.nodes_by_type("BatchNormalization") == []
        outputs_match(before, graph, (1, 3, 8, 8))

    def test_gemm_bn_folds(self):
        graph = self.build(op="Gemm")
        before = graph.copy()
        assert FoldBatchNorm().apply(graph) == 1
        outputs_match(before, graph, (1, 3, 8, 8))

    def test_conv_without_bias_gets_one(self):
        builder = GraphBuilder(seed=1)
        x = builder.input("input", (1, 3, 6, 6))
        y = builder.conv(x, 4, 3, pad=1, bias=False)
        y = builder.batch_norm(y)
        builder.output(y)
        graph = builder.finish()
        before = graph.copy()
        assert FoldBatchNorm().apply(graph) == 1
        conv = graph.nodes_by_type("Conv")[0]
        assert len(conv.inputs) == 3  # bias was added
        outputs_match(before, graph, (1, 3, 6, 6))

    def test_fused_activation_blocks_fold(self):
        """Regression (found by hypothesis): Conv -> Relu -> BN.

        After activation fusion the BN's producer is a Conv carrying a
        fused relu; folding the BN into its weights would move the affine
        *before* the nonlinearity and change the function.
        """
        from repro.passes import default_pipeline
        builder = GraphBuilder(seed=0)
        x = builder.input("input", (1, 3, 12, 12))
        y = builder.conv(x, 4, 3, pad=1)
        y = builder.relu(y)
        y = builder.batch_norm(y)
        builder.output(y)
        graph = builder.finish()
        optimized = default_pipeline().run(graph)
        outputs_match(graph, optimized, (1, 3, 12, 12))
        # The BN must survive (it cannot legally fold anywhere).
        assert len(optimized.nodes_by_type("BatchNormalization")) == 1

    def test_shared_conv_output_not_folded(self):
        builder = GraphBuilder(seed=1)
        x = builder.input("input", (1, 3, 6, 6))
        conv = builder.conv(x, 4, 3, pad=1)
        bn = builder.batch_norm(conv)
        # Second consumer of the conv output prevents weight rewriting.
        other = builder.relu(conv)
        builder.output(builder.add(bn, other))
        graph = builder.finish()
        assert FoldBatchNorm().apply(graph) == 0

    def test_chain_of_folds(self):
        builder = GraphBuilder(seed=4)
        x = builder.input("input", (1, 3, 8, 8))
        y = x
        for _ in range(3):
            y = builder.conv(y, 4, 3, pad=1, bias=False)
            y = builder.batch_norm(y)
        builder.output(y)
        graph = builder.finish()
        before = graph.copy()
        assert FoldBatchNorm().apply(graph) == 3
        outputs_match(before, graph, (1, 3, 8, 8))

    def test_folded_weight_rounds_once_from_float64(self):
        """The product is taken in float64 and rounded once to float32."""
        graph = self.build()
        conv = graph.nodes_by_type("Conv")[0]
        bn = graph.nodes_by_type("BatchNormalization")[0]
        weight = graph.initializers[conv.inputs[1]]
        scale, _, _, var = (graph.initializers[name].astype(np.float64)
                            for name in bn.inputs[1:5])
        epsilon = bn.attrs.get_float("epsilon", 1e-5)
        multiplier = (scale / np.sqrt(var + epsilon)).reshape(-1, 1, 1, 1)
        expected = (weight.astype(np.float64) * multiplier).astype(np.float32)
        assert FoldBatchNorm().apply(graph) == 1
        folded = graph.initializers[graph.nodes_by_type("Conv")[0].inputs[1]]
        assert folded.dtype == np.float32
        assert folded.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("model", ["mobilenet-v1", "resnet18", "resnet50"])
    def test_fold_allocates_no_weight_temporaries(self, model):
        """Peak minus what the pass keeps, counted, not timed.

        The 1 MiB allowance covers numpy's casting buffers and the per-BN
        float64 channel vectors. Two float64 copies of each weight peaked
        at 12.7 / 28.4 / 24.2 MB above the kept bytes on these models.
        """
        import tracemalloc

        from repro.models import zoo
        graph = zoo.build(model)
        tracemalloc.start()
        try:
            folded = FoldBatchNorm().apply(graph)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert folded > 0
        assert peak - kept <= 1 << 20, (peak, kept)


class TestFuseConvActivation:
    def test_relu_fused(self):
        builder = GraphBuilder(seed=0)
        x = builder.input("input", (1, 3, 6, 6))
        y = builder.conv(x, 4, 3, pad=1)
        builder.output(builder.relu(y))
        graph = builder.finish()
        before = graph.copy()
        assert FuseConvActivation().apply(graph) == 1
        graph.validate()
        assert graph.nodes_by_type("Relu") == []
        conv = graph.nodes_by_type("Conv")[0]
        assert conv.attrs.get_str("activation") == "relu"
        outputs_match(before, graph, (1, 3, 6, 6))

    def test_relu6_clip_fused(self):
        builder = GraphBuilder(seed=0)
        x = builder.input("input", (1, 3, 6, 6))
        y = builder.conv(x, 4, 3, pad=1)
        builder.output(builder.relu6(y))
        graph = builder.finish()
        before = graph.copy()
        assert FuseConvActivation().apply(graph) == 1
        conv = graph.nodes_by_type("Conv")[0]
        assert conv.attrs.get_str("activation") == "relu6"
        outputs_match(before, graph, (1, 3, 6, 6))

    def test_generic_clip_not_fused(self):
        builder = GraphBuilder(seed=0)
        x = builder.input("input", (1, 3, 6, 6))
        y = builder.conv(x, 4, 3, pad=1)
        y = builder.node("Clip", [y], {"min": -1.0, "max": 1.0})
        builder.output(y)
        graph = builder.finish()
        assert FuseConvActivation().apply(graph) == 0

    def test_conv_output_used_elsewhere_not_fused(self):
        builder = GraphBuilder(seed=0)
        x = builder.input("input", (1, 3, 6, 6))
        conv = builder.conv(x, 4, 3, pad=1)
        relu = builder.relu(conv)
        builder.output(builder.add(relu, conv))
        graph = builder.finish()
        assert FuseConvActivation().apply(graph) == 0

    def test_relu_on_non_conv_not_fused(self):
        builder = GraphBuilder()
        x = builder.input("input", (1, 4))
        builder.output(builder.relu(x))
        graph = builder.finish()
        assert FuseConvActivation().apply(graph) == 0


class TestFoldPad:
    def build(self, mode="constant", value=0.0, pad_channels=False):
        builder = GraphBuilder(seed=0)
        x = builder.input("input", (1, 3, 6, 6))
        pads = (0, 1, 1, 1, 0, 1, 1, 1) if pad_channels else (0, 0, 1, 1, 0, 0, 1, 1)
        y = builder.node("Pad", [x], {"pads": pads, "mode": mode, "value": value})
        y = builder.conv(y, 4, 3)
        builder.output(y)
        return builder.finish()

    def test_zero_pad_folds_into_conv(self):
        graph = self.build()
        before = graph.copy()
        assert FoldPadIntoConv().apply(graph) == 1
        graph.validate()
        assert graph.nodes_by_type("Pad") == []
        conv = graph.nodes_by_type("Conv")[0]
        assert conv.attrs.get_ints("pads") == (1, 1, 1, 1)
        outputs_match(before, graph, (1, 3, 6, 6))

    def test_nonzero_pad_not_folded(self):
        graph = self.build(value=3.0)
        assert FoldPadIntoConv().apply(graph) == 0

    def test_reflect_pad_not_folded(self):
        graph = self.build(mode="reflect")
        assert FoldPadIntoConv().apply(graph) == 0

    def test_channel_pad_not_folded(self):
        graph = self.build(pad_channels=True)
        assert FoldPadIntoConv().apply(graph) == 0


class TestConstantFoldingAndDCE:
    def test_constant_expression_folded(self):
        builder = GraphBuilder()
        x = builder.input("input", (1, 4))
        a = builder.constant(np.ones(4, dtype=np.float32))
        b = builder.constant(np.full(4, 2.0, dtype=np.float32))
        folded = builder.add(a, b)  # constant subgraph
        builder.output(builder.add(x, folded))
        graph = builder.finish()
        assert ConstantFolding().apply(graph) == 1
        graph.validate()
        assert len(graph.nodes_by_type("Add")) == 1

    def test_materialize_constants(self):
        graph = Graph(
            inputs=[ValueInfo("input", (2,))],
            outputs=[ValueInfo("y", (2,))],
            nodes=[
                Node("Constant", [], ["c"],
                     {"value": np.ones(2, np.float32)}),
                Node("Add", ["input", "c"], ["y"]),
            ],
        )
        assert MaterializeConstants().apply(graph) == 1
        assert graph.nodes_by_type("Constant") == []
        assert "c" in graph.initializers

    def test_dead_nodes_removed(self):
        builder = GraphBuilder()
        x = builder.input("input", (1, 4))
        live = builder.relu(x)
        dead = builder.sigmoid(x)
        builder.node("Neg", [dead])  # dead chain of two
        builder.output(live)
        graph = builder.finish()
        assert EliminateDeadNodes().apply(graph) == 2
        graph.validate()
        assert len(graph.nodes) == 1

    def test_dce_keeps_everything_live(self, tiny_graph):
        graph = tiny_graph.copy()
        assert EliminateDeadNodes().apply(graph) == 0
