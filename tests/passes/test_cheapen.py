"""Cheap-convolution substitution (Moonshine-style transform)."""

import numpy as np
import pytest

from repro.analysis import count_graph
from repro.ir.builder import GraphBuilder
from repro.ir.shape_inference import infer_shapes
from repro.models import zoo
from repro.passes import cheapen_convolutions, default_pipeline
from repro.runtime.session import InferenceSession


def simple_convnet(channels=16):
    builder = GraphBuilder(seed=0)
    x = builder.input("input", (1, channels, 8, 8))
    y = builder.conv(x, channels, 3, pad=1)          # eligible
    y = builder.conv(y, channels, 1)                 # pointwise: skipped
    y = builder.conv(y, channels, 3, stride=2, pad=1)  # eligible, strided
    builder.output(y)
    return builder.finish()


class TestStructure:
    def test_eligible_convs_become_pairs(self):
        graph = simple_convnet()
        cheap, report = cheapen_convolutions(graph)
        assert report.replaced == 2
        assert report.skipped == 1
        convs = cheap.nodes_by_type("Conv")
        depthwise = [n for n in convs if n.attrs.get_int("group", 1) > 1]
        assert len(depthwise) == 2
        assert len(convs) == 1 + 2 * 2  # skipped pointwise + 2 pairs

    def test_shapes_preserved(self):
        graph = simple_convnet()
        cheap, _ = cheapen_convolutions(graph)
        original = infer_shapes(graph)
        transformed = infer_shapes(cheap)
        for name in graph.output_names:
            assert original[name] == transformed[name]

    def test_stride_moves_to_depthwise_stage(self):
        graph = simple_convnet()
        cheap, _ = cheapen_convolutions(graph)
        strided = [n for n in cheap.nodes_by_type("Conv")
                   if tuple(n.attrs.get_ints("strides", (1, 1))) == (2, 2)]
        assert len(strided) == 1
        assert strided[0].attrs.get_int("group") > 1  # it is the depthwise

    def test_small_channel_convs_skipped(self):
        builder = GraphBuilder(seed=0)
        x = builder.input("input", (1, 3, 8, 8))
        builder.output(builder.conv(x, 4, 3, pad=1))
        cheap, report = cheapen_convolutions(builder.finish(), min_channels=8)
        assert report.replaced == 0
        assert report.skipped == 1

    def test_bias_carried_to_pointwise(self):
        graph = simple_convnet()
        cheap, _ = cheapen_convolutions(graph)
        pointwise_stages = [
            n for n in cheap.nodes_by_type("Conv")
            if n.name.endswith("_pw")]
        assert all(len(n.inputs) == 3 for n in pointwise_stages)

    def test_fused_activation_carried_to_pointwise(self):
        builder = GraphBuilder(seed=0)
        x = builder.input("input", (1, 16, 8, 8))
        y = builder.conv(x, 16, 3, pad=1)
        builder.output(builder.relu(y))
        graph = default_pipeline().run(builder.finish())
        cheap, _ = cheapen_convolutions(graph)
        pw = [n for n in cheap.nodes_by_type("Conv") if n.name.endswith("_pw")]
        assert pw and pw[0].attrs.get_str("activation") == "relu"
        dw = [n for n in cheap.nodes_by_type("Conv") if n.name.endswith("_dw")]
        assert dw and "activation" not in dw[0].attrs


class TestCostAndExecution:
    def test_macs_reduced_substantially(self):
        graph = default_pipeline().run(zoo.build("wrn-40-2", image_size=16))
        cheap, report = cheapen_convolutions(graph)
        assert report.macs_ratio < 0.25
        cheap_cost = count_graph(cheap)
        assert cheap_cost.total_macs == report.macs_after
        # ...but the activation traffic stays: the system-level gap.
        assert (cheap_cost.activation_bytes
                / count_graph(graph).activation_bytes) > 0.9

    def test_transformed_graph_runs(self, rng):
        graph = default_pipeline().run(zoo.build("wrn-40-2", image_size=16))
        cheap, _ = cheapen_convolutions(graph)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        out = InferenceSession(cheap, optimize=False).run({"input": x})
        probs = out[cheap.output_names[0]]
        np.testing.assert_allclose(probs.sum(), 1.0, rtol=1e-4)

    def test_deterministic_given_seed(self):
        graph = simple_convnet()
        a, _ = cheapen_convolutions(graph, seed=3)
        b, _ = cheapen_convolutions(graph, seed=3)
        for name in a.initializers:
            np.testing.assert_array_equal(
                a.initializers[name], b.initializers[name])

    def test_original_untouched(self):
        graph = simple_convnet()
        nodes_before = len(graph.nodes)
        cheapen_convolutions(graph)
        assert len(graph.nodes) == nodes_before

    def test_report_str(self):
        _, report = cheapen_convolutions(simple_convnet())
        assert "replaced 2" in str(report)
