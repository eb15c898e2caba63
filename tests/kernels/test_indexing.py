"""Slice / Gather: kernels and shape inference agree."""

import numpy as np
import pytest

from repro.ir.graph import Graph, ValueInfo
from repro.ir.node import Node
from repro.ir.shape_inference import infer_shapes
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import REGISTRY
from repro.tensor.dtype import DType


def run(op_type, inputs, attrs=None, num_outputs=1, input_names=None):
    names = input_names or [f"i{k}" for k in range(len(inputs))]
    node = Node(op_type, names, [f"y{k}" for k in range(num_outputs)], attrs)
    outs = REGISTRY.get(op_type, "default").fn(
        list(inputs), node, ExecutionContext())
    return outs[0] if num_outputs == 1 else outs


def infer(op_type, input_arrays, attrs=None, num_outputs=1,
          constant_from=1):
    """Run shape inference where trailing inputs are initializers."""
    node_inputs = []
    graph_inputs = []
    initializers = {}
    for index, array in enumerate(input_arrays):
        name = f"i{index}"
        node_inputs.append(name)
        if index >= constant_from:
            initializers[name] = np.asarray(array)
        else:
            graph_inputs.append(ValueInfo(
                name, np.asarray(array).shape,
                DType.from_numpy(np.asarray(array).dtype)))
    outputs = [f"y{k}" for k in range(num_outputs)]
    graph = Graph(
        inputs=graph_inputs,
        nodes=[Node(op_type, node_inputs, outputs, attrs)],
        initializers=initializers,
    )
    values = infer_shapes(graph)
    return [values[name][0] for name in outputs]


class TestSlice:
    def test_basic(self, rng):
        x = rng.standard_normal((4, 6)).astype(np.float32)
        out = run("Slice", [x, np.array([1]), np.array([3]), np.array([0])])
        np.testing.assert_array_equal(out, x[1:3])

    def test_negative_indices_and_steps(self, rng):
        x = rng.standard_normal((8,)).astype(np.float32)
        out = run("Slice", [x, np.array([-1]), np.array([-9]),
                            np.array([0]), np.array([-2])])
        np.testing.assert_array_equal(out, x[-1:-9:-2])

    def test_clamping_beyond_bounds(self, rng):
        x = rng.standard_normal((5,)).astype(np.float32)
        out = run("Slice", [x, np.array([2]), np.array([1000]), np.array([0])])
        np.testing.assert_array_equal(out, x[2:])

    def test_attr_form(self, rng):
        x = rng.standard_normal((4, 6)).astype(np.float32)
        out = run("Slice", [x], {"starts": (0,), "ends": (2,), "axes": (1,)})
        np.testing.assert_array_equal(out, x[:, :2])

    def test_shape_inference_matches_kernel(self, rng):
        x = rng.standard_normal((6, 8)).astype(np.float32)
        args = [x, np.array([1, 2], np.int64), np.array([5, -1], np.int64),
                np.array([0, 1], np.int64), np.array([2, 1], np.int64)]
        [inferred] = infer("Slice", args)
        actual = run("Slice", args)
        assert inferred == actual.shape


class TestGather:
    def test_axis0(self, rng):
        x = rng.standard_normal((5, 3)).astype(np.float32)
        idx = np.array([4, 0, 2], np.int64)
        np.testing.assert_array_equal(run("Gather", [x, idx]), x[[4, 0, 2]])

    def test_axis1_with_2d_indices(self, rng):
        x = rng.standard_normal((2, 5)).astype(np.float32)
        idx = np.array([[0, 1], [4, 3]], np.int64)
        out = run("Gather", [x, idx], {"axis": 1})
        assert out.shape == (2, 2, 2)
        [inferred] = infer("Gather", [x, idx], {"axis": 1})
        assert inferred == out.shape

    def test_indices_must_be_integer_for_inference(self, rng):
        x = rng.standard_normal((5,)).astype(np.float32)
        bad = np.array([0.5], np.float32)
        with pytest.raises(Exception, match="integer"):
            infer("Gather", [x, bad])


class TestEndToEnd:
    def test_yolo_style_head_runs(self, rng):
        """Slice/MaxPool/Concat composed like a detection head."""
        from repro.ir.builder import GraphBuilder
        from repro.runtime.session import InferenceSession
        builder = GraphBuilder(seed=0)
        x = builder.input("input", (1, 8, 8, 8))
        crop = builder.node(
            "Slice",
            [x, builder.constant(np.array([0, 0, 0], np.int64), "starts"),
             builder.constant(np.array([4, 4, 4], np.int64), "ends"),
             builder.constant(np.array([1, 2, 3], np.int64), "axes")])
        rest = builder.node(
            "Slice",
            [x, builder.constant(np.array([4], np.int64), "rest_starts"),
             builder.constant(np.array([8], np.int64), "rest_ends"),
             builder.constant(np.array([1], np.int64), "rest_axes")])
        pooled = builder.max_pool(rest, 2)
        merged = builder.concat([crop, pooled], axis=1)
        builder.output(merged)
        graph = builder.finish()
        out = InferenceSession(graph).run(
            {"input": rng.standard_normal((1, 8, 8, 8)).astype(np.float32)})
        assert out[graph.output_names[0]].shape == (1, 8, 4, 4)
