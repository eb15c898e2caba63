"""GraphBuilder: fluent construction, shape tracking, determinism."""

import numpy as np
import pytest

from repro.errors import ShapeInferenceError
from repro.ir.builder import GraphBuilder
from repro.ir.shape_inference import infer_shapes
from repro.runtime.session import InferenceSession
from repro.tensor.dtype import DType


class TestBasics:
    def test_fresh_names_are_unique(self):
        builder = GraphBuilder()
        names = {builder.fresh("v") for _ in range(100)}
        assert len(names) == 100

    def test_input_output_registration(self):
        builder = GraphBuilder()
        x = builder.input("x", (1, 3, 4, 4))
        y = builder.relu(x)
        builder.output(y)
        graph = builder.finish()
        assert graph.input_names == ["x"]
        assert graph.output_names == [y]

    def test_shape_tracking(self):
        builder = GraphBuilder()
        x = builder.input("x", (1, 3, 8, 8))
        y = builder.conv(x, 16, 3, pad=1)
        assert builder.shape_of(y) == (1, 16, 8, 8)
        z = builder.max_pool(y, 2)
        assert builder.shape_of(z) == (1, 16, 4, 4)

    def test_constant_registers_initializer(self):
        builder = GraphBuilder()
        name = builder.constant(np.eye(3, dtype=np.float32))
        graph = builder._graph
        assert name in graph.initializers


class TestWeights:
    def test_same_seed_same_weights(self):
        def build(seed):
            builder = GraphBuilder(seed=seed)
            x = builder.input("x", (1, 3, 4, 4))
            builder.output(builder.conv(x, 4, 3, pad=1))
            return builder.finish()

        g1, g2 = build(5), build(5)
        for name in g1.initializers:
            np.testing.assert_array_equal(
                g1.initializers[name], g2.initializers[name])

    def test_different_seed_different_weights(self):
        def build(seed):
            builder = GraphBuilder(seed=seed)
            x = builder.input("x", (1, 3, 4, 4))
            builder.output(builder.conv(x, 4, 3, pad=1))
            return builder.finish()

        g1, g2 = build(1), build(2)
        weights1 = [v for k, v in sorted(g1.initializers.items()) if "conv_w" in k]
        weights2 = [v for k, v in sorted(g2.initializers.items()) if "conv_w" in k]
        assert not np.array_equal(weights1[0], weights2[0])

    def test_weights_equal_the_scaled_draw_bit_for_bit(self):
        builder = GraphBuilder(seed=3)
        weight = builder._graph.initializers[builder.weight((8, 4, 3, 3))]
        scale = float(np.sqrt(2.0 / 36))
        expected = (np.random.default_rng(3).standard_normal((8, 4, 3, 3))
                    * scale).astype(np.float32)
        assert weight.dtype == np.float32
        assert weight.tobytes() == expected.tobytes()

    def test_he_scale_shrinks_with_fan_in(self):
        builder = GraphBuilder(seed=0)
        small = builder._graph.initializers[builder.weight((8, 4, 3, 3))]
        large = builder._graph.initializers[builder.weight((8, 400, 3, 3))]
        assert small.std() > large.std()


class TestLayerHelpers:
    def test_depthwise_conv_sets_group(self):
        builder = GraphBuilder()
        x = builder.input("x", (1, 8, 6, 6))
        builder.output(builder.depthwise_conv(x))
        graph = builder.finish()
        conv = graph.nodes_by_type("Conv")[0]
        assert conv.attrs.get_int("group") == 8

    def test_conv_group_divisibility_checked(self):
        builder = GraphBuilder()
        x = builder.input("x", (1, 6, 4, 4))
        with pytest.raises(ValueError, match="divisible"):
            builder.conv(x, 6, 3, group=4)

    def test_relu6_is_clip(self):
        builder = GraphBuilder()
        x = builder.input("x", (1, 2))
        builder.output(builder.relu6(x))
        graph = builder.finish()
        clip = graph.nodes_by_type("Clip")[0]
        assert clip.attrs.get_float("min") == 0.0
        assert clip.attrs.get_float("max") == 6.0

    def test_dense_shapes(self):
        builder = GraphBuilder()
        x = builder.input("x", (2, 32))
        y = builder.dense(x, 10)
        assert builder.shape_of(y) == (2, 10)

    def test_conv_bn_relu_block(self):
        builder = GraphBuilder()
        x = builder.input("x", (1, 3, 8, 8))
        builder.output(builder.conv_bn_relu(x, 4, 3, pad=1))
        graph = builder.finish()
        assert len(graph.nodes_by_type("Conv")) == 1
        assert len(graph.nodes_by_type("BatchNormalization")) == 1
        assert len(graph.nodes_by_type("Relu")) == 1

    def test_finished_graph_validates_and_infers(self):
        builder = GraphBuilder()
        x = builder.input("x", (1, 3, 8, 8))
        left = builder.conv(x, 4, 1)
        right = builder.conv(x, 4, 1)
        builder.output(builder.add(left, right))
        graph = builder.finish()
        values = infer_shapes(graph)
        assert values[graph.output_names[0]][0] == (1, 4, 8, 8)


class TestIncrementalTypes:
    """Each node is typed once, when added, from the values defined so far."""

    def test_zero_d_constant_keeps_its_rank(self):
        builder = GraphBuilder()
        x = builder.input("x", (3, 4))
        index = builder.constant(np.array(1, dtype=np.int64))
        y = builder.node("Gather", [x, index], {"axis": 0})
        assert builder._graph.initializers[index].shape == ()
        assert builder.shape_of(index) == ()
        assert builder.shape_of(y) == (4,)
        builder.output(y)
        graph = builder.finish()
        assert infer_shapes(graph)[y] == ((4,), DType.FLOAT32)
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        out = InferenceSession(graph).run({"x": data})[y]
        np.testing.assert_array_equal(out, np.take(data, 1, axis=0))

    def test_constant_is_stored_c_contiguous(self):
        builder = GraphBuilder()
        name = builder.constant(np.arange(6, dtype=np.float32).reshape(2, 3).T)
        stored = builder._graph.initializers[name]
        assert stored.flags.c_contiguous
        assert builder.shape_of(name) == stored.shape == (3, 2)

    def test_reshape_target_from_constant(self):
        builder = GraphBuilder()
        x = builder.input("x", (2, 3, 4))
        target = builder.constant(np.array([0, -1], dtype=np.int64))
        y = builder.node("Reshape", [x, target])
        assert builder.shape_of(y) == (2, 12)
        builder.output(y)
        graph = builder.finish()
        assert builder._types == infer_shapes(graph)
        out = InferenceSession(graph).run(
            {"x": np.zeros((2, 3, 4), np.float32)})[y]
        assert out.shape == (2, 12)

    def test_reshape_target_from_constant_node(self):
        builder = GraphBuilder()
        x = builder.input("x", (2, 3, 4))
        target = builder.node(
            "Constant", [], {"value": np.array([-1, 4], dtype=np.int64)})
        y = builder.node("Reshape", [x, target])
        assert builder.shape_of(target) == (2,)
        assert builder.shape_of(y) == (6, 4)
        builder.output(y)
        graph = builder.finish()
        assert builder._types == infer_shapes(graph)
        out = InferenceSession(graph).run(
            {"x": np.zeros((2, 3, 4), np.float32)})[y]
        assert out.shape == (6, 4)

    def test_reading_an_undefined_value_raises(self):
        builder = GraphBuilder()
        with pytest.raises(ShapeInferenceError, match="'missing' with unknown type"):
            builder.relu("missing")
