"""ONNX proto dataclasses: serialize/parse roundtrips per message type."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OnnxError
from repro.onnx.schema import (
    ATTR_FLOAT,
    ATTR_INT,
    ATTR_INTS,
    ATTR_STRING,
    ATTR_TENSOR,
    AttributeProto,
    GraphProto,
    ModelProto,
    NodeProto,
    OperatorSetIdProto,
    TensorProto,
    ValueInfoProto,
)
from repro.onnx.wire import MessageWriter


class TestTensorProto:
    @pytest.mark.parametrize("dtype", [
        np.float32, np.float64, np.int8, np.uint8, np.int32, np.int64,
        np.bool_, np.float16,
    ])
    def test_raw_data_roundtrip(self, dtype, rng):
        array = (rng.standard_normal((2, 3)) * 5).astype(dtype)
        proto = TensorProto.from_numpy(array, name="t")
        back = TensorProto.parse(proto.serialize())
        assert back.name == "t"
        np.testing.assert_array_equal(back.to_numpy(), array)

    def test_float_data_field(self):
        proto = TensorProto(dims=(3,), data_type=1,
                            float_data=[1.0, 2.0, 3.0])
        back = TensorProto.parse(proto.serialize())
        np.testing.assert_array_equal(back.to_numpy(), [1.0, 2.0, 3.0])

    def test_int64_data_field(self):
        proto = TensorProto(dims=(2,), data_type=7, int64_data=[-1, 5])
        back = TensorProto.parse(proto.serialize())
        np.testing.assert_array_equal(back.to_numpy(), [-1, 5])

    def test_scalar_tensor(self):
        proto = TensorProto.from_numpy(np.float32(2.5).reshape(()))
        assert TensorProto.parse(proto.serialize()).to_numpy() == 2.5

    def test_empty_tensor(self):
        proto = TensorProto.from_numpy(np.zeros((0,), np.float32))
        assert TensorProto.parse(proto.serialize()).to_numpy().size == 0

    def test_size_mismatch_rejected(self):
        proto = TensorProto(dims=(5,), data_type=1, float_data=[1.0])
        with pytest.raises(OnnxError, match="elements"):
            proto.to_numpy()

    def test_missing_data_rejected(self):
        with pytest.raises(OnnxError, match="no data"):
            TensorProto(dims=(2,), data_type=1).to_numpy()

    def test_unknown_dtype_rejected(self):
        proto = TensorProto(dims=(1,), data_type=77, raw_data=b"\x00")
        with pytest.raises(OnnxError, match="unsupported data_type"):
            proto.to_numpy()


class TestAttributeProto:
    @pytest.mark.parametrize("value,kind", [
        (3, ATTR_INT),
        (2.5, ATTR_FLOAT),
        ("same", ATTR_STRING),
        ((1, 2, 3), ATTR_INTS),
    ])
    def test_scalar_roundtrips(self, value, kind):
        proto = AttributeProto.from_value("k", value)
        assert proto.type == kind
        back = AttributeProto.parse(proto.serialize())
        assert back.name == "k"
        result = back.to_value()
        if isinstance(value, tuple):
            assert result == value
        else:
            assert result == pytest.approx(value) if kind == ATTR_FLOAT \
                else result == value

    def test_tensor_attribute(self, rng):
        value = rng.standard_normal((2, 2)).astype(np.float32)
        proto = AttributeProto.from_value("value", value)
        assert proto.type == ATTR_TENSOR
        back = AttributeProto.parse(proto.serialize())
        np.testing.assert_array_equal(back.to_value(), value)

    def test_floats_attribute(self):
        proto = AttributeProto.from_value("f", (1.5, 2.5))
        back = AttributeProto.parse(proto.serialize())
        assert back.to_value() == (1.5, 2.5)

    def test_strings_attribute(self):
        proto = AttributeProto.from_value("s", ("a", "b"))
        back = AttributeProto.parse(proto.serialize())
        assert back.to_value() == ("a", "b")

    def test_bool_becomes_int(self):
        assert AttributeProto.from_value("b", True).to_value() == 1

    def test_unsupported_value_rejected(self):
        with pytest.raises(OnnxError, match="cannot map"):
            AttributeProto.from_value("bad", object())

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=10))
    def test_ints_property(self, ints):
        proto = AttributeProto.from_value("ints", tuple(ints))
        back = AttributeProto.parse(proto.serialize())
        assert back.to_value() == tuple(ints)


class TestNodeProto:
    def test_roundtrip(self):
        node = NodeProto(
            input=["x", "w", ""], output=["y"], name="conv0", op_type="Conv",
            attribute=[AttributeProto.from_value("group", 2)])
        back = NodeProto.parse(node.serialize())
        assert back.input == ["x", "w", ""]
        assert back.output == ["y"]
        assert back.op_type == "Conv"
        assert back.attribute[0].to_value() == 2


class TestValueInfoProto:
    def test_concrete_dims(self):
        info = ValueInfoProto(name="x", elem_type=1, dims=[1, 3, 224, 224])
        back = ValueInfoProto.parse(info.serialize())
        assert back.name == "x"
        assert back.elem_type == 1
        assert back.dims == [1, 3, 224, 224]

    def test_symbolic_dims(self):
        info = ValueInfoProto(name="x", elem_type=1, dims=["batch", 3])
        back = ValueInfoProto.parse(info.serialize())
        assert back.dims == ["batch", 3]

    def test_negative_dim_becomes_symbolic(self):
        info = ValueInfoProto(name="x", elem_type=1, dims=[-1, 4])
        back = ValueInfoProto.parse(info.serialize())
        assert back.dims[0] == "unk"
        assert back.dims[1] == 4


class TestModelProto:
    def test_full_roundtrip(self):
        graph = GraphProto(
            name="g",
            node=[NodeProto(input=["x"], output=["y"], op_type="Relu")],
            input=[ValueInfoProto(name="x", elem_type=1, dims=[1, 4])],
            output=[ValueInfoProto(name="y", elem_type=1, dims=[1, 4])],
            initializer=[TensorProto.from_numpy(np.ones(2, np.float32), "w")],
        )
        model = ModelProto(graph=graph,
                           opset_import=[OperatorSetIdProto(version=13)])
        back = ModelProto.parse(model.serialize())
        assert back.producer_name == "orpheus"
        assert back.graph.name == "g"
        assert back.graph.node[0].op_type == "Relu"
        assert back.opset_import[0].version == 13
        np.testing.assert_array_equal(
            back.graph.initializer[0].to_numpy(), [1.0, 1.0])

    def test_unknown_fields_skipped(self):
        # Append an unknown varint field (field 63) — parser must ignore it.
        from repro.onnx.wire import MessageWriter
        model = ModelProto(graph=GraphProto(name="g"))
        data = model.serialize() + MessageWriter().varint(63, 9).finish()
        back = ModelProto.parse(data)
        assert back.graph.name == "g"


def _scalar_as(field, wire_type):
    """One field ``field``, encoded with ``wire_type`` whatever it should be."""
    writer = MessageWriter()
    if wire_type == "bytes":
        return writer.bytes_field(field, b"\x05").finish()
    if wire_type == "fixed32":
        return writer.fixed32(field, 1.0).finish()
    return writer.varint(field, 1).finish()


def _value_info(tensor_type):
    """A ValueInfoProto named "x" around a TypeProto.Tensor body."""
    type_proto = MessageWriter().message(1, tensor_type)
    return MessageWriter().string(1, "x").message(2, type_proto).finish()


class TestScalarWireTypes:
    """A scalar field with the wrong wire type is an error, not a default."""

    @pytest.mark.parametrize("cls, field, wire_type, name", [
        (TensorProto, 2, "bytes", "TensorProto.data_type"),
        (OperatorSetIdProto, 2, "bytes", "OperatorSetIdProto.version"),
        (AttributeProto, 2, "bytes", "AttributeProto.f"),
        (AttributeProto, 2, "varint", "AttributeProto.f"),
        (AttributeProto, 3, "bytes", "AttributeProto.i"),
        (AttributeProto, 3, "fixed32", "AttributeProto.i"),
        (AttributeProto, 20, "bytes", "AttributeProto.type"),
        (ModelProto, 1, "bytes", "ModelProto.ir_version"),
        (ModelProto, 5, "bytes", "ModelProto.model_version"),
    ])
    def test_mistyped_scalar_rejected(self, cls, field, wire_type, name):
        with pytest.raises(OnnxError, match=f"{name}: field {field} has wire type"):
            cls.parse(_scalar_as(field, wire_type))

    def test_mistyped_elem_type_rejected(self):
        tensor_type = MessageWriter().bytes_field(1, b"\x05")
        with pytest.raises(OnnxError, match="TypeProto.elem_type"):
            ValueInfoProto.parse(_value_info(tensor_type))

    def test_mistyped_dim_value_rejected(self):
        shape = MessageWriter().message(1, MessageWriter().bytes_field(1, b"\x05"))
        tensor_type = MessageWriter().varint(1, 1).message(2, shape)
        with pytest.raises(OnnxError, match="Dimension.dim_value"):
            ValueInfoProto.parse(_value_info(tensor_type))

    def test_load_rejects_length_delimited_opset_version(self):
        """Once parsed as the default opset 13 and passed the range check."""
        from repro.onnx import load_model_bytes
        model = ModelProto(graph=GraphProto(name="g"))
        opset = MessageWriter().bytes_field(2, b"\x63")  # "version 99"
        data = model.serialize() + MessageWriter().message(8, opset).finish()
        with pytest.raises(OnnxError, match="OperatorSetIdProto.version"):
            load_model_bytes(data)

    def test_length_delimited_data_type_not_read_as_float(self):
        """Once decoded these 8 bytes as two float32 values."""
        data = (MessageWriter().varint(1, 2).bytes_field(2, b"\x07")
                .bytes_field(9, bytes(8)).finish())
        with pytest.raises(OnnxError, match="TensorProto.data_type"):
            TensorProto.parse(data)
