"""Quantized kernels and the QDQ graph transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.quant  # noqa: F401  (registers quantized kernels)
from repro.errors import QuantizationError
from repro.ir.node import Node
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import REGISTRY
from repro.quant import calibrate, quantize_graph
from repro.runtime.session import InferenceSession
from tests.conftest import tiny_classifier


def run_op(op_type, inputs, attrs=None):
    node = Node(op_type, [f"i{k}" for k in range(len(inputs))], ["y"], attrs)
    return REGISTRY.get(op_type, "default").fn(
        list(inputs), node, ExecutionContext())[0]


class TestQuantDequantKernels:
    def test_quantize_linear(self):
        x = np.array([-1.0, 0.0, 1.0], np.float32)
        q = run_op("QuantizeLinear",
                   [x, np.float32(0.01), np.array(128, np.uint8)])
        np.testing.assert_array_equal(q, [28, 128, 228])

    def test_quantize_clamps(self):
        x = np.array([-100.0, 100.0], np.float32)
        q = run_op("QuantizeLinear",
                   [x, np.float32(0.01), np.array(128, np.uint8)])
        np.testing.assert_array_equal(q, [0, 255])

    def test_dequantize_linear(self):
        q = np.array([28, 128, 228], np.uint8)
        x = run_op("DequantizeLinear",
                   [q, np.float32(0.01), np.array(128, np.uint8)])
        np.testing.assert_allclose(x, [-1.0, 0.0, 1.0], atol=1e-6)

    def test_roundtrip(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        scale = np.float32(np.abs(x).max() / 120)
        zp = np.array(128, np.uint8)
        q = run_op("QuantizeLinear", [x, scale, zp])
        back = run_op("DequantizeLinear", [q, scale, zp])
        assert np.abs(back - x).max() <= scale


class TestQLinearConvExactness:
    """The f64-GEMM accumulation must equal literal int32 arithmetic."""

    @settings(max_examples=15, deadline=None)
    @given(
        in_ch=st.integers(1, 4), out_ch=st.integers(1, 4),
        size=st.integers(4, 8), seed=st.integers(0, 10_000),
    )
    def test_int32_exact(self, in_ch, out_ch, size, seed):
        rng = np.random.default_rng(seed)
        x_q = rng.integers(0, 256, (1, in_ch, size, size)).astype(np.uint8)
        w_q = rng.integers(-127, 128, (out_ch, in_ch, 3, 3)).astype(np.int8)
        x_zp = np.array(rng.integers(0, 256), np.uint8)
        attrs = {"kernel_shape": (3, 3), "strides": (1, 1),
                 "pads": (1, 1, 1, 1), "dilations": (1, 1), "group": 1}
        x_scale = np.float32(1.0)
        w_scale = np.float32(1.0)
        y_scale = np.float32(2 ** 20)  # huge scale: output ~ acc >> 20 + zp
        y_zp = np.array(0, np.uint8)
        out = run_op("QLinearConv", [x_q, x_scale, x_zp, w_q, w_scale,
                                     np.array(0, np.int8), y_scale, y_zp],
                     attrs)
        # int32 reference accumulation
        shifted = x_q.astype(np.int32) - int(x_zp)
        padded = np.pad(shifted, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros((1, out_ch, size, size), np.int64)
        for oc in range(out_ch):
            for ky in range(3):
                for kx in range(3):
                    patch = padded[0, :, ky:ky + size, kx:kx + size]
                    ref[0, oc] += (patch.astype(np.int64)
                                   * w_q[oc, :, ky, kx].reshape(-1, 1, 1)
                                   .astype(np.int64)).sum(axis=0)
        expected = np.clip(np.round(ref / float(y_scale)), 0, 255).astype(np.uint8)
        np.testing.assert_array_equal(out, expected)

    def test_bias_applied(self, rng):
        x_q = np.full((1, 1, 2, 2), 10, np.uint8)
        w_q = np.ones((1, 1, 1, 1), np.int8)
        bias = np.array([100], np.int32)
        attrs = {"kernel_shape": (1, 1), "strides": (1, 1),
                 "pads": (0, 0, 0, 0), "dilations": (1, 1), "group": 1}
        out = run_op("QLinearConv", [
            x_q, np.float32(1.0), np.array(0, np.uint8),
            w_q, np.float32(1.0), np.array(0, np.int8),
            np.float32(1.0), np.array(0, np.uint8), bias], attrs)
        assert out[0, 0, 0, 0] == 110

    def test_depthwise_path(self, rng):
        x_q = rng.integers(0, 256, (1, 4, 6, 6)).astype(np.uint8)
        w_q = rng.integers(-127, 128, (4, 1, 3, 3)).astype(np.int8)
        attrs = {"kernel_shape": (3, 3), "strides": (1, 1),
                 "pads": (1, 1, 1, 1), "dilations": (1, 1), "group": 4}
        out = run_op("QLinearConv", [
            x_q, np.float32(0.02), np.array(128, np.uint8),
            w_q, np.float32(0.05), np.array(0, np.int8),
            np.float32(0.5), np.array(128, np.uint8)], attrs)
        assert out.shape == (1, 4, 6, 6)
        assert out.dtype == np.uint8


class TestGraphQuantization:
    @pytest.fixture
    def calibrated(self, rng):
        from repro.passes import default_pipeline
        graph = default_pipeline().run(tiny_classifier(seed=4))
        batches = [
            {"input": rng.standard_normal((1, 3, 8, 8)).astype(np.float32)}
            for _ in range(3)
        ]
        ranges = calibrate(graph, batches)
        return graph, ranges, batches

    def test_ranges_cover_all_float_values(self, calibrated):
        graph, ranges, _ = calibrated
        for node in graph.nodes:
            for out in node.outputs:
                if out in ranges:
                    break
        assert "input" in ranges

    def test_quantize_converts_convs(self, calibrated):
        graph, ranges, _ = calibrated
        qgraph, report = quantize_graph(graph, ranges)
        assert report.converted_convs == len(graph.nodes_by_type("Conv"))
        assert len(qgraph.nodes_by_type("QLinearConv")) == report.converted_convs
        qgraph.validate()

    def test_quantized_outputs_close_to_float(self, calibrated, rng):
        graph, ranges, _ = calibrated
        qgraph, _ = quantize_graph(graph, ranges)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        out_name = graph.output_names[0]
        f32 = InferenceSession(graph, optimize=False).run({"input": x})[out_name]
        int8 = InferenceSession(qgraph, optimize=False).run({"input": x})[out_name]
        assert f32.argmax() == int8.argmax()
        assert np.abs(f32 - int8).max() < 0.15

    def test_weights_shrink(self, calibrated):
        graph, ranges, _ = calibrated
        qgraph, _ = quantize_graph(graph, ranges)
        conv_w = [a for n, a in graph.initializers.items() if "conv" in n.lower()
                  and a.ndim == 4]
        q_w = [a for a in qgraph.initializers.values() if a.dtype == np.int8
               and a.ndim == 4]
        assert sum(a.nbytes for a in q_w) * 4 == sum(a.nbytes for a in conv_w)

    def test_roundtrip_removal_for_chained_convs(self, rng):
        from repro.ir.builder import GraphBuilder
        from repro.passes import default_pipeline
        builder = GraphBuilder(seed=0)
        x = builder.input("input", (1, 3, 8, 8))
        y = builder.conv(x, 4, 3, pad=1)
        y = builder.conv(y, 4, 3, pad=1)
        builder.output(y)
        graph = default_pipeline().run(builder.finish())
        batches = [{"input": rng.standard_normal((1, 3, 8, 8)).astype(np.float32)}]
        qgraph, report = quantize_graph(graph, calibrate(graph, batches))
        assert report.removed_roundtrips == 1
        # One Quantize at the head, one Dequantize at the tail.
        assert len(qgraph.nodes_by_type("QuantizeLinear")) == 1
        assert len(qgraph.nodes_by_type("DequantizeLinear")) == 1

    def test_calibrate_requires_batches(self, calibrated):
        graph, _, _ = calibrated
        with pytest.raises(QuantizationError, match="at least one batch"):
            calibrate(graph, [])

    def test_unknown_observer_rejected(self, calibrated):
        graph, _, batches = calibrated
        with pytest.raises(QuantizationError, match="unknown observer"):
            calibrate(graph, batches, observer="median")

    def test_percentile_observer_works_end_to_end(self, calibrated, rng):
        graph, _, batches = calibrated
        ranges = calibrate(graph, batches, observer="percentile",
                           percentile=99.5)
        qgraph, report = quantize_graph(graph, ranges)
        assert report.converted_convs > 0
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        InferenceSession(qgraph, optimize=False).run({"input": x})


class TestWrnInt8:
    """WRN-40-2 at its canonical 32x32, int8 against float32."""

    @pytest.fixture(scope="class")
    def wrn_pair(self):
        from repro.bench.workloads import calibration_batches
        from repro.models import zoo
        from repro.passes import default_pipeline
        graph = default_pipeline().run(zoo.build("wrn-40-2"))
        batches = [{"input": b}
                   for b in calibration_batches("wrn-40-2", count=3)]
        qgraph, report = quantize_graph(graph, calibrate(graph, batches))
        assert report.converted_convs == 40
        return graph, qgraph

    def test_conv_weights_shrink_exactly_4x(self, wrn_pair):
        # 4-D weights on both sides: 2,236,848 B int8, 8,947,392 B f32.
        # The 1-element int8 zero points are not weights.
        graph, qgraph = wrn_pair
        f32 = sum(a.nbytes for a in graph.initializers.values() if a.ndim == 4)
        int8 = sum(a.nbytes for a in qgraph.initializers.values()
                   if a.dtype == np.int8 and a.ndim == 4)
        assert int8 * 4 == f32

    def test_top1_agrees_on_seeded_inputs(self, wrn_pair):
        from repro.bench.workloads import model_input
        f32, int8 = (InferenceSession(g, optimize=False) for g in wrn_pair)
        agree = 0
        for seed in range(100, 108):
            feed = {"input": model_input("wrn-40-2", seed=seed)}
            agree += int(f32.run(feed)["output"].argmax()
                         == int8.run(feed)["output"].argmax())
        assert agree >= 7

