"""Protocol-buffers wire format, from scratch.

ONNX models are protobuf messages; to keep the framework dependency-free
(the paper's "minimal dependencies" design goal) this module implements the
wire format directly: varints, the four wire types, tagged fields, packed
repeated scalars. Schema knowledge lives in :mod:`repro.onnx.schema`; this
module is schema-agnostic.

Reference: https://protobuf.dev/programming-guides/encoding/
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence

from repro.errors import WireFormatError

# Wire types
VARINT = 0
FIXED64 = 1
LENGTH_DELIMITED = 2
FIXED32 = 5

#: Hard cap on nested-message depth. Model files cross the trust boundary,
#: and a hostile payload nesting submessages thousands of levels deep must
#: exhaust this explicit limit (a catchable WireFormatError), never the
#: Python stack (RecursionError). The schema's deepest legitimate chain
#: (Model > Graph > Node > Attribute > Tensor) is nowhere near this.
MAX_MESSAGE_DEPTH = 64

_WIRE_TYPE_NAMES = {VARINT: "varint", FIXED64: "fixed64",
                    LENGTH_DELIMITED: "length-delimited", FIXED32: "fixed32"}


# ---------------------------------------------------------------------------
# varints
# ---------------------------------------------------------------------------


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a base-128 varint."""
    if value < 0:
        raise WireFormatError(
            f"varint cannot encode negative value {value}; "
            "use encode_signed_varint for int64 two's-complement semantics")
    out = bytearray()
    while True:
        bits = value & 0x7F
        value >>= 7
        if value:
            out.append(bits | 0x80)
        else:
            out.append(bits)
            return bytes(out)


def encode_signed_varint(value: int) -> bytes:
    """Encode a possibly-negative int64 (two's complement, 10 bytes max)."""
    if value < 0:
        value += 1 << 64
    return encode_varint(value)


def decode_varint(data: bytes, pos: int = 0) -> tuple[int, int]:
    """Decode a varint at ``pos``; returns (value, new_pos)."""
    result = 0
    shift = 0
    start = pos
    while True:
        if pos >= len(data):
            raise WireFormatError(f"truncated varint at offset {start}")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift >= 70:
            raise WireFormatError(f"varint longer than 10 bytes at offset {start}")


def encode_zigzag(value: int) -> int:
    """ZigZag-map a signed integer (sint32/sint64 fields)."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def decode_zigzag(value: int) -> int:
    """Inverse ZigZag mapping."""
    return (value >> 1) ^ -(value & 1)


# ---------------------------------------------------------------------------
# tags and fields
# ---------------------------------------------------------------------------


def encode_tag(field_number: int, wire_type: int) -> bytes:
    if field_number < 1:
        raise WireFormatError(f"invalid field number {field_number}")
    if wire_type not in _WIRE_TYPE_NAMES:
        raise WireFormatError(f"invalid wire type {wire_type}")
    return encode_varint((field_number << 3) | wire_type)


def decode_tag(data: bytes, pos: int) -> tuple[int, int, int]:
    """Decode a tag; returns (field_number, wire_type, new_pos)."""
    key, pos = decode_varint(data, pos)
    field_number = key >> 3
    wire_type = key & 0x7
    if field_number < 1:
        raise WireFormatError(f"invalid field number {field_number} in tag")
    if wire_type not in _WIRE_TYPE_NAMES:
        raise WireFormatError(
            f"unsupported wire type {wire_type} for field {field_number}")
    return field_number, wire_type, pos


class MessageWriter:
    """Accumulates tagged fields into protobuf message bytes.

    Fields are kept as a list of chunks (``bytes`` or any buffer, such as a
    view of an array's memory) and joined once, by :meth:`finish`.
    """

    def __init__(self) -> None:
        self._chunks: list[bytes | memoryview] = []

    def varint(self, field: int, value: int) -> "MessageWriter":
        self._chunks.append(encode_tag(field, VARINT))
        self._chunks.append(encode_signed_varint(int(value)))
        return self

    def fixed32(self, field: int, value: float) -> "MessageWriter":
        self._chunks.append(encode_tag(field, FIXED32))
        self._chunks.append(struct.pack("<f", value))
        return self

    def fixed64(self, field: int, value: float) -> "MessageWriter":
        self._chunks.append(encode_tag(field, FIXED64))
        self._chunks.append(struct.pack("<d", value))
        return self

    def bytes_field(self, field: int, value: "bytes | memoryview") -> "MessageWriter":
        self._chunks.append(encode_tag(field, LENGTH_DELIMITED))
        self._chunks.append(encode_varint(len(value)))
        self._chunks.append(value)
        return self

    def string(self, field: int, value: str) -> "MessageWriter":
        return self.bytes_field(field, value.encode("utf-8"))

    def message(self, field: int, value: "bytes | MessageWriter") -> "MessageWriter":
        """Append a submessage; a writer's chunks are spliced in, not joined.

        Joining the child first would copy its payload once per nesting
        level (tensor in graph in model: three transient copies of the
        weights); splicing leaves :meth:`finish` of the outermost writer as
        the only copy. The bytes produced are the same either way.
        """
        if not isinstance(value, MessageWriter):
            return self.bytes_field(field, value)
        self._chunks.append(encode_tag(field, LENGTH_DELIMITED))
        self._chunks.append(encode_varint(sum(map(len, value._chunks))))
        self._chunks.extend(value._chunks)
        return self

    def packed_varints(self, field: int, values: Sequence[int]) -> "MessageWriter":
        body = b"".join(encode_signed_varint(int(v)) for v in values)
        return self.bytes_field(field, body)

    def packed_floats(self, field: int, values: Sequence[float]) -> "MessageWriter":
        return self.bytes_field(field, struct.pack(f"<{len(values)}f", *values))

    def packed_doubles(self, field: int, values: Sequence[float]) -> "MessageWriter":
        return self.bytes_field(field, struct.pack(f"<{len(values)}d", *values))

    def finish(self) -> bytes:
        return b"".join(self._chunks)


#: (field_number, wire_type, value): an int for varint and fixed fields, a
#: ``memoryview`` slice sharing the input's memory for length-delimited ones.
Field = tuple[int, int, "int | memoryview"]


def iter_fields(data: "bytes | bytearray | memoryview",
                depth: int = 0) -> Iterator[Field]:
    """Yield (field_number, wire_type, raw_value) for each field in ``data``.

    ``data`` may be ``bytes``, ``bytearray`` or a ``memoryview``. Varint/fixed
    values come out as ints (fixed ones as raw little-endian ints —
    reinterpret with :func:`fixed32_to_float` etc.); length-delimited values
    come out as ``memoryview`` slices that share the input's memory, so a
    nested message or a tensor payload is never copied by decoding it. A
    kept view keeps the whole input alive; ``bytes(value)`` keeps only its
    own bytes.

    ``depth`` is the message-nesting level: callers recursing into a
    submessage pass ``depth + 1``, and depths beyond
    :data:`MAX_MESSAGE_DEPTH` are rejected with a
    :class:`~repro.errors.WireFormatError` before any field is decoded.
    Declared lengths are always validated against the remaining buffer, so
    a truncated or lying length prefix can never trigger an oversized
    slice.
    """
    if depth > MAX_MESSAGE_DEPTH:
        raise WireFormatError(
            f"message nesting deeper than {MAX_MESSAGE_DEPTH} levels "
            "(hostile or corrupt payload)")
    # This loop is the decode hot path (every model/engine load walks it
    # once per field), so the overwhelmingly common single-byte varints —
    # field numbers below 16, values and lengths below 128 — are decoded
    # inline instead of through decode_tag/decode_varint calls.
    data = memoryview(data)
    pos = 0
    end = len(data)
    while pos < end:
        key = data[pos]
        if key < 0x80:
            pos += 1
        else:
            key, pos = decode_varint(data, pos)
        field_number = key >> 3
        wire_type = key & 0x7
        if field_number < 1:
            raise WireFormatError(f"invalid field number {field_number} in tag")
        if wire_type == LENGTH_DELIMITED:
            if pos < end and data[pos] < 0x80:
                length = data[pos]
                pos += 1
            else:
                length, pos = decode_varint(data, pos)
            if length > end - pos:
                raise WireFormatError(
                    f"length-delimited field {field_number} overruns the "
                    f"buffer: declares {length} bytes with only "
                    f"{end - pos} remaining at offset {pos}")
            yield field_number, wire_type, data[pos:pos + length]
            pos += length
        elif wire_type == VARINT:
            if pos < end and data[pos] < 0x80:
                value = data[pos]
                pos += 1
            else:
                value, pos = decode_varint(data, pos)
            yield field_number, wire_type, value
        elif wire_type == FIXED64:
            if pos + 8 > end:
                raise WireFormatError(f"truncated fixed64 in field {field_number}")
            yield field_number, wire_type, int.from_bytes(data[pos:pos + 8], "little")
            pos += 8
        elif wire_type == FIXED32:
            if pos + 4 > end:
                raise WireFormatError(f"truncated fixed32 in field {field_number}")
            yield field_number, wire_type, int.from_bytes(data[pos:pos + 4], "little")
            pos += 4
        else:
            raise WireFormatError(
                f"unsupported wire type {wire_type} for field {field_number}")


def fixed32_to_float(raw: int) -> float:
    return struct.unpack("<f", raw.to_bytes(4, "little"))[0]


def fixed64_to_double(raw: int) -> float:
    return struct.unpack("<d", raw.to_bytes(8, "little"))[0]


def varint_to_int64(raw: int) -> int:
    return raw - (1 << 64) if raw >= 1 << 63 else raw


def decode_packed_varints(data: bytes) -> list[int]:
    """Decode a packed repeated int64 field body."""
    values = []
    pos = 0
    while pos < len(data):
        value, pos = decode_varint(data, pos)
        values.append(varint_to_int64(value))
    return values


def decode_packed_floats(data: bytes) -> list[float]:
    if len(data) % 4:
        raise WireFormatError(f"packed float body of {len(data)} bytes")
    return list(struct.unpack(f"<{len(data) // 4}f", data))


def decode_packed_doubles(data: bytes) -> list[float]:
    if len(data) % 8:
        raise WireFormatError(f"packed double body of {len(data)} bytes")
    return list(struct.unpack(f"<{len(data) // 8}d", data))
