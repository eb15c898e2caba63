"""ONNX import/export: semantic roundtrip of framework graphs."""

import numpy as np
import pytest

from repro.errors import OnnxError, UnsupportedOpError
from repro.ir.builder import GraphBuilder
from repro.onnx import (
    load_model,
    load_model_bytes,
    save_model,
    save_model_bytes,
)
from repro.onnx.schema import GraphProto, ModelProto, NodeProto, ValueInfoProto
from repro.runtime.session import InferenceSession
from tests.conftest import tiny_classifier


def run_graph(graph, feed):
    outputs = InferenceSession(graph, optimize=False).run(feed)
    return next(iter(outputs.values()))


class TestRoundtrip:
    def test_outputs_identical(self, rng):
        graph = tiny_classifier(seed=3)
        data = save_model_bytes(graph)
        back = load_model_bytes(data)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(
            run_graph(graph, {"input": x}), run_graph(back, {"input": x}),
            rtol=1e-6)

    def test_structure_preserved(self):
        graph = tiny_classifier()
        back = load_model_bytes(save_model_bytes(graph))
        assert back.op_histogram() == graph.op_histogram()
        assert back.input_names == graph.input_names
        assert back.output_names == graph.output_names
        assert set(back.initializers) == set(graph.initializers)

    def test_weights_bit_identical(self):
        graph = tiny_classifier()
        back = load_model_bytes(save_model_bytes(graph))
        for name, array in graph.initializers.items():
            np.testing.assert_array_equal(back.initializers[name], array)

    def test_file_roundtrip(self, tmp_path, rng):
        graph = tiny_classifier(seed=1)
        path = str(tmp_path / "model.onnx")
        save_model(graph, path)
        back = load_model(path)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(
            run_graph(graph, {"input": x}), run_graph(back, {"input": x}),
            rtol=1e-6)

    def test_symbolic_batch_roundtrip(self):
        builder = GraphBuilder("dyn")
        x = builder.input("x", (-1, 4))
        builder.output(builder.relu(x))
        graph = builder.finish()
        back = load_model_bytes(save_model_bytes(graph))
        assert back.inputs[0].shape == (-1, 4)

    def test_zoo_model_roundtrip(self, rng):
        from repro.models import zoo
        graph = zoo.build("wrn-40-2", image_size=16)
        back = load_model_bytes(save_model_bytes(graph))
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        np.testing.assert_allclose(
            run_graph(graph, {"input": x}), run_graph(back, {"input": x}),
            rtol=1e-5, atol=1e-6)


class TestWriterFootprint:
    def test_writer_holds_one_copy_of_the_weights(self):
        """The export's transient peak is the result plus small change.

        Joining each nesting level separately (tobytes, TensorProto,
        GraphProto, ModelProto) peaked at ~3.4x the file size.
        """
        import tracemalloc

        from repro.models import zoo
        graph = zoo.build("mobilenet-v1")
        tracemalloc.start()
        try:
            data = save_model_bytes(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data) > 16_000_000
        assert peak <= 1.3 * len(data), (peak, len(data))

    def test_empty_and_scalar_initializers_roundtrip(self):
        graph = tiny_classifier()
        graph.initializers["empty"] = np.empty((0, 3), dtype=np.float32)
        graph.initializers["scalar"] = np.array(2.5, dtype=np.float32)
        graph.initializers["strided"] = np.arange(12.0).reshape(3, 4).T
        back = load_model_bytes(save_model_bytes(graph))
        for name in ("empty", "scalar", "strided"):
            np.testing.assert_array_equal(
                back.initializers[name], graph.initializers[name])
            assert back.initializers[name].shape == \
                graph.initializers[name].shape


class TestReaderValidation:
    def test_unsupported_op_rejected(self):
        graph = GraphProto(
            name="bad",
            node=[NodeProto(input=["x"], output=["y"], op_type="FancyOp")],
            input=[ValueInfoProto(name="x", elem_type=1, dims=[1])],
            output=[ValueInfoProto(name="y", elem_type=1, dims=[1])],
        )
        data = ModelProto(graph=graph).serialize()
        with pytest.raises(UnsupportedOpError, match="FancyOp"):
            load_model_bytes(data)

    def test_unsupported_domain_rejected(self):
        graph = GraphProto(
            name="bad",
            node=[NodeProto(input=["x"], output=["y"], op_type="Relu",
                            domain="com.example")],
            input=[ValueInfoProto(name="x", elem_type=1, dims=[1])],
            output=[ValueInfoProto(name="y", elem_type=1, dims=[1])],
        )
        data = ModelProto(graph=graph).serialize()
        with pytest.raises(UnsupportedOpError, match="domain"):
            load_model_bytes(data)

    @staticmethod
    def _one_op_model(op_type, tmp_path):
        """A well-formed opset-20 model of one ``op_type`` node, as bytes
        and as a file; LayerNormalization takes its scale as a weight."""
        from repro.onnx.schema import OperatorSetIdProto, TensorProto
        inputs, weights = ["x"], []
        if op_type == "LayerNormalization":
            inputs.append("scale")
            weights.append(TensorProto.from_numpy(
                np.ones(4, np.float32), name="scale"))
        graph = GraphProto(
            name="culled",
            node=[NodeProto(input=inputs, output=["y"], op_type=op_type,
                            name=f"{op_type}_0")],
            initializer=weights,
            input=[ValueInfoProto(name="x", elem_type=1, dims=[1, 4])],
            output=[ValueInfoProto(name="y", elem_type=1, dims=[1, 4])],
        )
        data = ModelProto(graph=graph, opset_import=[
            OperatorSetIdProto(version=20)]).serialize()
        path = tmp_path / f"{op_type}.onnx"
        path.write_bytes(data)
        return data, path

    @pytest.mark.parametrize("op_type", ["Gelu", "LayerNormalization"])
    def test_op_without_a_kernel_is_rejected_at_import(self, op_type,
                                                       tmp_path, capsys):
        """An op the runtime does not implement fails structurally, by
        name, at load — never as a KeyError at prepare or run — and
        `orpheus verify` reports it instead of crashing."""
        from repro import cli
        data, path = self._one_op_model(op_type, tmp_path)
        with pytest.raises(UnsupportedOpError, match=op_type):
            load_model_bytes(data)
        assert cli.main(["verify", str(path)]) != 0
        out = capsys.readouterr().out
        assert "ORV100" in out and op_type in out

    def test_model_without_graph_rejected(self):
        with pytest.raises(OnnxError, match="no graph"):
            load_model_bytes(ModelProto().serialize())

    def test_bad_attribute_rejected(self):
        graph = GraphProto(
            name="bad",
            node=[NodeProto(input=["x"], output=["y"], op_type="Softmax",
                            attribute=[
                                __import__("repro.onnx.schema", fromlist=["AttributeProto"])
                                .AttributeProto.from_value("axes", 1)])],
            input=[ValueInfoProto(name="x", elem_type=1, dims=[1, 2])],
            output=[ValueInfoProto(name="y", elem_type=1, dims=[1, 2])],
        )
        data = ModelProto(graph=graph).serialize()
        with pytest.raises(Exception, match="unexpected attribute"):
            load_model_bytes(data)

    def test_initializer_listed_as_input_is_not_a_real_input(self):
        # ONNX convention: initializers may also appear in graph.input.
        graph = tiny_classifier()
        proto = ModelProto.parse(save_model_bytes(graph)).graph
        weight_name = next(iter(graph.initializers))
        proto.input.append(ValueInfoProto(
            name=weight_name, elem_type=1,
            dims=list(graph.initializers[weight_name].shape)))
        from repro.onnx.reader import graph_from_proto
        back = graph_from_proto(proto)
        assert back.input_names == ["input"]


class TestWriterValidation:
    def test_fused_graph_export_rejected(self):
        from repro.passes import default_pipeline
        graph = default_pipeline().run(tiny_classifier())
        # The optimised graph carries the internal 'activation' attribute.
        assert any("activation" in node.attrs for node in graph.nodes)
        with pytest.raises(OnnxError, match="framework-internal"):
            save_model_bytes(graph)

    def test_invalid_graph_export_rejected(self):
        graph = tiny_classifier()
        graph.nodes[0].inputs[0] = "ghost"
        with pytest.raises(Exception):
            save_model_bytes(graph)
