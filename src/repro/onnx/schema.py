"""The ONNX protobuf schema subset, as plain dataclasses.

Field numbers follow ``onnx.proto3`` and are stable across ONNX releases.
Each proto class knows how to parse itself from message bytes and serialize
itself back, through the wire codec in :mod:`repro.onnx.wire`. Only the
messages and fields the importer/exporter needs are modelled; unknown
fields are skipped on parse (protobuf's forward-compatibility rule).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import OnnxError
from repro.onnx import wire
from repro.onnx.wire import (
    FIXED32,
    FIXED64,
    LENGTH_DELIMITED,
    VARINT,
    MessageWriter,
    iter_fields,
)
from repro.tensor.dtype import DType


def _expect(wire_type: int, expected: int, message: str, field: int) -> None:
    if wire_type != expected:
        raise OnnxError(
            f"{message}: field {field} has wire type {wire_type}, "
            f"expected {expected}")


def _string(value: "int | memoryview", message: str, field: int) -> str:
    if not isinstance(value, memoryview):
        raise OnnxError(f"{message}: field {field} is not length-delimited")
    return str(value, "utf-8")


def _bytes(value: "int | memoryview", message: str, field: int) -> memoryview:
    """Nested-message payload: must be length-delimited."""
    if not isinstance(value, memoryview):
        raise OnnxError(f"{message}: field {field} is not a submessage")
    return value


# ---------------------------------------------------------------------------
# TensorProto
# ---------------------------------------------------------------------------

#: Hard cap on declared tensor elements. A hostile TensorProto can declare
#: dims whose product is astronomical while carrying a few bytes of data;
#: the cap turns that into an OnnxError before any allocation is attempted.
MAX_TENSOR_ELEMENTS = 1 << 31

# TensorProto.DataType codes -> numpy dtypes (the supported subset).
_TENSOR_DTYPES: dict[int, np.dtype] = {
    1: np.dtype(np.float32),
    2: np.dtype(np.uint8),
    3: np.dtype(np.int8),
    6: np.dtype(np.int32),
    7: np.dtype(np.int64),
    9: np.dtype(np.bool_),
    10: np.dtype(np.float16),
    11: np.dtype(np.float64),
}


@dataclasses.dataclass
class TensorProto:
    """ONNX TensorProto: a constant tensor (weights, attribute values)."""

    name: str = ""
    dims: tuple[int, ...] = ()
    data_type: int = 1
    raw_data: bytes | memoryview | None = None
    float_data: list[float] = dataclasses.field(default_factory=list)
    int32_data: list[int] = dataclasses.field(default_factory=list)
    int64_data: list[int] = dataclasses.field(default_factory=list)
    double_data: list[float] = dataclasses.field(default_factory=list)

    @classmethod
    def parse(cls, data: "bytes | memoryview", depth: int = 0) -> "TensorProto":
        proto = cls()
        dims: list[int] = []
        for field, wire_type, value in iter_fields(data, depth):
            if field == 1:  # dims
                if wire_type == VARINT:
                    dims.append(wire.varint_to_int64(value))
                elif wire_type == LENGTH_DELIMITED:  # packed
                    dims.extend(wire.decode_packed_varints(value))
                else:
                    raise OnnxError(
                        f"TensorProto.dims: invalid wire type {wire_type}")
            elif field == 2:
                _expect(wire_type, VARINT, "TensorProto.data_type", field)
                proto.data_type = value
            elif field == 4:  # float_data (packed)
                _expect(wire_type, LENGTH_DELIMITED, "TensorProto.float_data", field)
                proto.float_data.extend(wire.decode_packed_floats(value))
            elif field == 5:
                _expect(wire_type, LENGTH_DELIMITED, "TensorProto.int32_data", field)
                proto.int32_data.extend(wire.decode_packed_varints(value))
            elif field == 7:
                _expect(wire_type, LENGTH_DELIMITED, "TensorProto.int64_data", field)
                proto.int64_data.extend(wire.decode_packed_varints(value))
            elif field == 8:
                proto.name = _string(value, "TensorProto.name", field)
            elif field == 9:
                _expect(wire_type, LENGTH_DELIMITED, "TensorProto.raw_data", field)
                proto.raw_data = value  # a view; to_numpy makes the copy
            elif field == 10:
                _expect(wire_type, LENGTH_DELIMITED, "TensorProto.double_data", field)
                proto.double_data.extend(wire.decode_packed_doubles(value))
            # other fields (segment, string_data, externals) are skipped
        proto.dims = tuple(dims)
        return proto

    def writer(self) -> MessageWriter:
        """The message as unjoined chunks, for a parent writer to splice."""
        writer = MessageWriter()
        for dim in self.dims:
            writer.varint(1, dim)
        writer.varint(2, self.data_type)
        if self.float_data:
            writer.packed_floats(4, self.float_data)
        if self.int32_data:
            writer.packed_varints(5, self.int32_data)
        if self.int64_data:
            writer.packed_varints(7, self.int64_data)
        if self.name:
            writer.string(8, self.name)
        if self.raw_data is not None:
            writer.bytes_field(9, self.raw_data)
        if self.double_data:
            writer.packed_doubles(10, self.double_data)
        return writer

    def serialize(self) -> bytes:
        return self.writer().finish()

    # -- numpy bridge ------------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        """Materialise as a numpy array (raw or typed data fields)."""
        dtype = _TENSOR_DTYPES.get(self.data_type)
        if dtype is None:
            raise OnnxError(
                f"tensor {self.name!r}: unsupported data_type {self.data_type}")
        count = 1
        for dim in self.dims:
            if dim < 0:
                raise OnnxError(
                    f"tensor {self.name!r}: negative dimension {dim} "
                    f"in dims {tuple(self.dims)}")
            count *= dim
        if count > MAX_TENSOR_ELEMENTS:
            raise OnnxError(
                f"tensor {self.name!r}: dims {tuple(self.dims)} declare "
                f"{count} elements, over the {MAX_TENSOR_ELEMENTS} cap "
                "(hostile or corrupt model)")
        if self.raw_data is not None:
            if len(self.raw_data) % dtype.itemsize:
                raise OnnxError(
                    f"tensor {self.name!r}: raw_data of {len(self.raw_data)} "
                    f"bytes is not a whole number of {dtype} elements "
                    f"({dtype.itemsize} bytes each)")
            array = np.frombuffer(self.raw_data, dtype=dtype)
        elif self.float_data and self.data_type == 1:
            array = np.asarray(self.float_data, dtype=dtype)
        elif self.double_data and self.data_type == 11:
            array = np.asarray(self.double_data, dtype=dtype)
        elif self.int64_data and self.data_type == 7:
            array = np.asarray(self.int64_data, dtype=dtype)
        elif self.int32_data and self.data_type in (2, 3, 6, 9):
            array = np.asarray(self.int32_data, dtype=np.int32).astype(dtype)
        elif count == 0:
            array = np.empty(0, dtype=dtype)
        else:
            raise OnnxError(f"tensor {self.name!r} carries no data")
        if array.size != count:
            raise OnnxError(
                f"tensor {self.name!r}: {array.size} elements, dims say {count}")
        # The one copy of each weight a load makes, kept on purpose: raw_data
        # is a view at an arbitrary file offset, so an array over it would be
        # misaligned (BLAS takes differently rounded paths on such buffers,
        # see engine/format.py::_aligned_blob), read-only, and would pin the
        # whole file buffer for as long as any one initializer lives.
        return array.reshape(self.dims).copy()

    @classmethod
    def from_numpy(cls, array: np.ndarray, name: str = "") -> "TensorProto":
        dtype = DType.from_numpy(array.dtype)
        # A view of the array's own memory, not a ``tobytes()`` copy: the
        # writer's final join is then the only copy of the weights made.
        raw = (memoryview(np.ascontiguousarray(array)).cast("B")
               if array.size else b"")
        return cls(
            name=name,
            dims=tuple(int(dim) for dim in array.shape),
            data_type=dtype.onnx_code,
            raw_data=raw,
        )


# ---------------------------------------------------------------------------
# AttributeProto
# ---------------------------------------------------------------------------

ATTR_FLOAT = 1
ATTR_INT = 2
ATTR_STRING = 3
ATTR_TENSOR = 4
ATTR_FLOATS = 6
ATTR_INTS = 7
ATTR_STRINGS = 8


@dataclasses.dataclass
class AttributeProto:
    """ONNX AttributeProto (the scalar/list/tensor subset)."""

    name: str = ""
    type: int = 0
    f: float = 0.0
    i: int = 0
    s: bytes = b""
    t: TensorProto | None = None
    floats: list[float] = dataclasses.field(default_factory=list)
    ints: list[int] = dataclasses.field(default_factory=list)
    strings: list[bytes] = dataclasses.field(default_factory=list)

    @classmethod
    def parse(cls, data: "bytes | memoryview", depth: int = 0) -> "AttributeProto":
        proto = cls()
        for field, wire_type, value in iter_fields(data, depth):
            if field == 1:
                proto.name = _string(value, "AttributeProto.name", field)
            elif field == 2:
                _expect(wire_type, FIXED32, "AttributeProto.f", field)
                proto.f = wire.fixed32_to_float(value)
            elif field == 3:
                _expect(wire_type, VARINT, "AttributeProto.i", field)
                proto.i = wire.varint_to_int64(value)
            elif field == 4:
                _expect(wire_type, LENGTH_DELIMITED, "AttributeProto.s", field)
                proto.s = bytes(value)
            elif field == 5:
                _expect(wire_type, LENGTH_DELIMITED, "AttributeProto.t", field)
                proto.t = TensorProto.parse(
                    _bytes(value, "AttributeProto.t", field), depth + 1)
            elif field == 7:
                if wire_type == FIXED32:
                    proto.floats.append(wire.fixed32_to_float(value))
                elif wire_type == LENGTH_DELIMITED:
                    proto.floats.extend(wire.decode_packed_floats(value))
                else:
                    raise OnnxError(
                        f"AttributeProto.floats: invalid wire type {wire_type}")
            elif field == 8:
                if wire_type == VARINT:
                    proto.ints.append(wire.varint_to_int64(value))
                elif wire_type == LENGTH_DELIMITED:
                    proto.ints.extend(wire.decode_packed_varints(value))
                else:
                    raise OnnxError(
                        f"AttributeProto.ints: invalid wire type {wire_type}")
            elif field == 9:
                _expect(wire_type, LENGTH_DELIMITED, "AttributeProto.strings", field)
                proto.strings.append(bytes(value))
            elif field == 20:
                _expect(wire_type, VARINT, "AttributeProto.type", field)
                proto.type = value
        return proto

    def serialize(self) -> bytes:
        writer = MessageWriter()
        writer.string(1, self.name)
        if self.type == ATTR_FLOAT:
            writer.fixed32(2, self.f)
        elif self.type == ATTR_INT:
            writer.varint(3, self.i)
        elif self.type == ATTR_STRING:
            writer.bytes_field(4, self.s)
        elif self.type == ATTR_TENSOR:
            if self.t is None:
                raise OnnxError(f"attribute {self.name!r}: TENSOR type, no tensor")
            writer.message(5, self.t.writer())
        elif self.type == ATTR_FLOATS:
            writer.packed_floats(7, self.floats)
        elif self.type == ATTR_INTS:
            writer.packed_varints(8, self.ints)
        elif self.type == ATTR_STRINGS:
            for item in self.strings:
                writer.bytes_field(9, item)
        else:
            raise OnnxError(f"attribute {self.name!r}: unsupported type {self.type}")
        writer.varint(20, self.type)
        return writer.finish()

    # -- bridge to framework attribute values ------------------------------------

    def to_value(self) -> object:
        kind = self.type or self._guess_type()
        if kind == ATTR_FLOAT:
            return self.f
        if kind == ATTR_INT:
            return self.i
        if kind == ATTR_STRING:
            return self.s.decode("utf-8")
        if kind == ATTR_TENSOR:
            if self.t is None:
                raise OnnxError(f"attribute {self.name!r}: TENSOR type, no tensor")
            return self.t.to_numpy()
        if kind == ATTR_FLOATS:
            return tuple(self.floats)
        if kind == ATTR_INTS:
            return tuple(self.ints)
        if kind == ATTR_STRINGS:
            return tuple(item.decode("utf-8") for item in self.strings)
        raise OnnxError(f"attribute {self.name!r}: unsupported type {kind}")

    def _guess_type(self) -> int:
        if self.ints:
            return ATTR_INTS
        if self.floats:
            return ATTR_FLOATS
        if self.t is not None:
            return ATTR_TENSOR
        if self.s:
            return ATTR_STRING
        return ATTR_INT

    @classmethod
    def from_value(cls, name: str, value: object) -> "AttributeProto":
        if isinstance(value, bool):
            return cls(name=name, type=ATTR_INT, i=int(value))
        if isinstance(value, int):
            return cls(name=name, type=ATTR_INT, i=value)
        if isinstance(value, float):
            return cls(name=name, type=ATTR_FLOAT, f=value)
        if isinstance(value, str):
            return cls(name=name, type=ATTR_STRING, s=value.encode("utf-8"))
        if isinstance(value, np.ndarray):
            return cls(name=name, type=ATTR_TENSOR, t=TensorProto.from_numpy(value))
        if isinstance(value, (list, tuple)):
            items = list(value)
            if all(isinstance(item, int) for item in items):
                return cls(name=name, type=ATTR_INTS, ints=[int(i) for i in items])
            if all(isinstance(item, (int, float)) for item in items):
                return cls(name=name, type=ATTR_FLOATS,
                           floats=[float(i) for i in items])
            if all(isinstance(item, str) for item in items):
                return cls(name=name, type=ATTR_STRINGS,
                           strings=[item.encode("utf-8") for item in items])
        raise OnnxError(f"attribute {name!r}: cannot map {type(value).__name__}")


# ---------------------------------------------------------------------------
# NodeProto
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class NodeProto:
    input: list[str] = dataclasses.field(default_factory=list)
    output: list[str] = dataclasses.field(default_factory=list)
    name: str = ""
    op_type: str = ""
    attribute: list[AttributeProto] = dataclasses.field(default_factory=list)
    domain: str = ""

    @classmethod
    def parse(cls, data: "bytes | memoryview", depth: int = 0) -> "NodeProto":
        proto = cls()
        for field, _wire_type, value in iter_fields(data, depth):
            if field == 1:
                proto.input.append(_string(value, "NodeProto.input", field))
            elif field == 2:
                proto.output.append(_string(value, "NodeProto.output", field))
            elif field == 3:
                proto.name = _string(value, "NodeProto.name", field)
            elif field == 4:
                proto.op_type = _string(value, "NodeProto.op_type", field)
            elif field == 5:
                proto.attribute.append(AttributeProto.parse(
                    _bytes(value, "NodeProto.attribute", field), depth + 1))
            elif field == 7:
                proto.domain = _string(value, "NodeProto.domain", field)
        return proto

    def serialize(self) -> bytes:
        writer = MessageWriter()
        for name in self.input:
            writer.string(1, name)
        for name in self.output:
            writer.string(2, name)
        if self.name:
            writer.string(3, self.name)
        writer.string(4, self.op_type)
        for attr in self.attribute:
            writer.message(5, attr.serialize())
        if self.domain:
            writer.string(7, self.domain)
        return writer.finish()


# ---------------------------------------------------------------------------
# ValueInfoProto (with the nested TypeProto/TensorShapeProto flattened)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ValueInfoProto:
    name: str = ""
    elem_type: int = 1
    # dims: ints for fixed sizes, strings for symbolic ("batch") dims
    dims: list["int | str"] = dataclasses.field(default_factory=list)

    @classmethod
    def parse(cls, data: "bytes | memoryview", depth: int = 0) -> "ValueInfoProto":
        proto = cls()
        for field, _wire_type, value in iter_fields(data, depth):
            if field == 1:
                proto.name = _string(value, "ValueInfoProto.name", field)
            elif field == 2:  # TypeProto
                proto._parse_type(
                    _bytes(value, "ValueInfoProto.type", field), depth + 1)
        return proto

    def _parse_type(self, data: memoryview, depth: int) -> None:
        for field, _wire_type, value in iter_fields(data, depth):
            if field == 1:  # TypeProto.Tensor
                for tfield, twire, tvalue in iter_fields(
                        _bytes(value, "TypeProto.tensor_type", field),
                        depth + 1):
                    if tfield == 1:
                        _expect(twire, VARINT, "TypeProto.elem_type", tfield)
                        self.elem_type = tvalue
                    elif tfield == 2:  # TensorShapeProto
                        self._parse_shape(
                            _bytes(tvalue, "TensorShapeProto", tfield),
                            depth + 2)

    def _parse_shape(self, data: memoryview, depth: int) -> None:
        for field, _wire_type, value in iter_fields(data, depth):
            if field == 1:  # Dimension
                dim: int | str = -1
                for dfield, dwire, dvalue in iter_fields(
                        _bytes(value, "TensorShapeProto.dim", field),
                        depth + 1):
                    if dfield == 1:
                        _expect(dwire, VARINT, "Dimension.dim_value", dfield)
                        dim = wire.varint_to_int64(dvalue)
                    elif dfield == 2:
                        dim = _string(dvalue, "Dimension.dim_param", dfield)
                self.dims.append(dim)

    def serialize(self) -> bytes:
        shape = MessageWriter()
        for dim in self.dims:
            dimension = MessageWriter()
            if isinstance(dim, str):
                dimension.string(2, dim)
            elif dim < 0:
                dimension.string(2, "unk")
            else:
                dimension.varint(1, dim)
            shape.message(1, dimension)
        tensor_type = MessageWriter()
        tensor_type.varint(1, self.elem_type)
        tensor_type.message(2, shape)
        type_proto = MessageWriter()
        type_proto.message(1, tensor_type)
        writer = MessageWriter()
        writer.string(1, self.name)
        writer.message(2, type_proto)
        return writer.finish()


# ---------------------------------------------------------------------------
# GraphProto / OperatorSetIdProto / ModelProto
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class GraphProto:
    name: str = ""
    node: list[NodeProto] = dataclasses.field(default_factory=list)
    initializer: list[TensorProto] = dataclasses.field(default_factory=list)
    input: list[ValueInfoProto] = dataclasses.field(default_factory=list)
    output: list[ValueInfoProto] = dataclasses.field(default_factory=list)

    @classmethod
    def parse(cls, data: "bytes | memoryview", depth: int = 0) -> "GraphProto":
        proto = cls()
        for field, _wire_type, value in iter_fields(data, depth):
            if field == 1:
                proto.node.append(NodeProto.parse(
                    _bytes(value, "GraphProto.node", field), depth + 1))
            elif field == 2:
                proto.name = _string(value, "GraphProto.name", field)
            elif field == 5:
                proto.initializer.append(TensorProto.parse(
                    _bytes(value, "GraphProto.initializer", field), depth + 1))
            elif field == 11:
                proto.input.append(ValueInfoProto.parse(
                    _bytes(value, "GraphProto.input", field), depth + 1))
            elif field == 12:
                proto.output.append(ValueInfoProto.parse(
                    _bytes(value, "GraphProto.output", field), depth + 1))
            # value_info (13) and others skipped
        return proto

    def writer(self) -> MessageWriter:
        """The message as unjoined chunks, for a parent writer to splice."""
        writer = MessageWriter()
        for node in self.node:
            writer.message(1, node.serialize())
        writer.string(2, self.name)
        for tensor in self.initializer:
            writer.message(5, tensor.writer())
        for info in self.input:
            writer.message(11, info.serialize())
        for info in self.output:
            writer.message(12, info.serialize())
        return writer

    def serialize(self) -> bytes:
        return self.writer().finish()


@dataclasses.dataclass
class OperatorSetIdProto:
    domain: str = ""
    version: int = 13

    @classmethod
    def parse(cls, data: "bytes | memoryview", depth: int = 0) -> "OperatorSetIdProto":
        proto = cls()
        for field, wire_type, value in iter_fields(data, depth):
            if field == 1:
                proto.domain = _string(value, "OperatorSetIdProto.domain", field)
            elif field == 2:
                _expect(wire_type, VARINT, "OperatorSetIdProto.version", field)
                proto.version = wire.varint_to_int64(value)
        return proto

    def serialize(self) -> bytes:
        writer = MessageWriter()
        if self.domain:
            writer.string(1, self.domain)
        writer.varint(2, self.version)
        return writer.finish()


@dataclasses.dataclass
class ModelProto:
    ir_version: int = 8
    producer_name: str = "orpheus"
    producer_version: str = "1.0"
    model_version: int = 1
    graph: GraphProto | None = None
    opset_import: list[OperatorSetIdProto] = dataclasses.field(default_factory=list)

    @classmethod
    def parse(cls, data: "bytes | memoryview", depth: int = 0) -> "ModelProto":
        proto = cls(producer_name="", producer_version="", opset_import=[])
        for field, wire_type, value in iter_fields(data, depth):
            if field == 1:
                _expect(wire_type, VARINT, "ModelProto.ir_version", field)
                proto.ir_version = wire.varint_to_int64(value)
            elif field == 2:
                proto.producer_name = _string(value, "ModelProto.producer_name", field)
            elif field == 3:
                proto.producer_version = _string(
                    value, "ModelProto.producer_version", field)
            elif field == 5:
                _expect(wire_type, VARINT, "ModelProto.model_version", field)
                proto.model_version = wire.varint_to_int64(value)
            elif field == 7:
                proto.graph = GraphProto.parse(
                    _bytes(value, "ModelProto.graph", field), depth + 1)
            elif field == 8:
                proto.opset_import.append(OperatorSetIdProto.parse(
                    _bytes(value, "ModelProto.opset", field), depth + 1))
        return proto

    def writer(self) -> MessageWriter:
        """The message as unjoined chunks; ``finish()`` is the one join."""
        writer = MessageWriter()
        writer.varint(1, self.ir_version)
        if self.producer_name:
            writer.string(2, self.producer_name)
        if self.producer_version:
            writer.string(3, self.producer_version)
        writer.varint(5, self.model_version)
        if self.graph is not None:
            writer.message(7, self.graph.writer())
        for opset in self.opset_import or [OperatorSetIdProto()]:
            writer.message(8, opset.serialize())
        return writer

    def serialize(self) -> bytes:
        return self.writer().finish()
