"""Automatic quantization: synthetic calibration feeds and the transform."""

import numpy as np

import repro.quant  # noqa: F401  (registers quantized kernels)
from repro.quant.auto import auto_quantize, synthetic_calibration_feeds
from tests.conftest import tiny_classifier


class TestSyntheticFeeds:
    def test_deterministic(self):
        graph = tiny_classifier()
        a = synthetic_calibration_feeds(graph, batches=2, seed=5)
        b = synthetic_calibration_feeds(graph, batches=2, seed=5)
        assert len(a) == len(b) == 2
        for feed_a, feed_b in zip(a, b):
            for name in feed_a:
                np.testing.assert_array_equal(feed_a[name], feed_b[name])

    def test_batches_differ_from_each_other(self):
        graph = tiny_classifier()
        feeds = synthetic_calibration_feeds(graph, batches=2, seed=0)
        name = graph.inputs[0].name
        assert not np.array_equal(feeds[0][name], feeds[1][name])


class TestAutoQuantize:
    def test_deterministic_and_non_mutating(self):
        graph = tiny_classifier()
        before_nodes = [node.op_type for node in graph.nodes]
        first, report_a = auto_quantize(graph)
        second, report_b = auto_quantize(graph)
        assert report_a == report_b
        assert [node.op_type for node in graph.nodes] == before_nodes
        assert [node.op_type for node in first.nodes] == \
            [node.op_type for node in second.nodes]
        for name, array in first.initializers.items():
            np.testing.assert_array_equal(array, second.initializers[name])

    def test_reports_conversions(self):
        quantized, report = auto_quantize(tiny_classifier())
        assert report.converted_convs >= 1
        assert any(node.op_type == "QLinearConv" for node in quantized.nodes)
