"""Protobuf wire format: varints, tags, fields, packed scalars."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.onnx import wire
from repro.onnx.wire import (
    MessageWriter,
    decode_packed_doubles,
    decode_packed_floats,
    decode_packed_varints,
    decode_tag,
    decode_varint,
    decode_zigzag,
    encode_signed_varint,
    encode_tag,
    encode_varint,
    encode_zigzag,
    iter_fields,
)


class TestVarint:
    def test_known_encodings(self):
        assert encode_varint(0) == b"\x00"
        assert encode_varint(1) == b"\x01"
        assert encode_varint(127) == b"\x7f"
        assert encode_varint(128) == b"\x80\x01"
        assert encode_varint(300) == b"\xac\x02"  # the protobuf docs example

    def test_negative_rejected(self):
        with pytest.raises(WireFormatError, match="negative"):
            encode_varint(-1)

    def test_signed_negative_is_ten_bytes(self):
        encoded = encode_signed_varint(-1)
        assert len(encoded) == 10
        value, _ = decode_varint(encoded)
        assert wire.varint_to_int64(value) == -1

    def test_truncated_raises(self):
        with pytest.raises(WireFormatError, match="truncated"):
            decode_varint(b"\x80")

    def test_overlong_raises(self):
        with pytest.raises(WireFormatError, match="longer than 10"):
            decode_varint(b"\x80" * 11)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_roundtrip_unsigned(self, value):
        decoded, pos = decode_varint(encode_varint(value))
        assert decoded == value
        assert pos == len(encode_varint(value))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(2**63), 2**63 - 1))
    def test_roundtrip_signed(self, value):
        raw, _ = decode_varint(encode_signed_varint(value))
        assert wire.varint_to_int64(raw) == value


class TestZigzag:
    def test_known_values(self):
        assert encode_zigzag(0) == 0
        assert encode_zigzag(-1) == 1
        assert encode_zigzag(1) == 2
        assert encode_zigzag(-2) == 3

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-(2**62), 2**62))
    def test_roundtrip(self, value):
        assert decode_zigzag(encode_zigzag(value)) == value


class TestTags:
    def test_tag_roundtrip(self):
        data = encode_tag(5, wire.LENGTH_DELIMITED)
        field, wtype, pos = decode_tag(data, 0)
        assert (field, wtype) == (5, wire.LENGTH_DELIMITED)
        assert pos == len(data)

    def test_bad_field_number(self):
        with pytest.raises(WireFormatError, match="field number"):
            encode_tag(0, wire.VARINT)

    def test_bad_wire_type(self):
        with pytest.raises(WireFormatError, match="wire type"):
            encode_tag(1, 3)  # start-group: unsupported

    def test_decode_unsupported_wire_type(self):
        data = bytes([1 << 3 | 4])  # end-group
        with pytest.raises(WireFormatError, match="unsupported wire type"):
            decode_tag(data, 0)


class TestMessageWriterAndIter:
    def test_varint_field(self):
        data = MessageWriter().varint(1, 42).finish()
        [(field, wtype, value)] = list(iter_fields(data))
        assert (field, wtype, value) == (1, wire.VARINT, 42)

    def test_negative_varint_field(self):
        data = MessageWriter().varint(2, -5).finish()
        [(_, _, raw)] = list(iter_fields(data))
        assert wire.varint_to_int64(raw) == -5

    def test_string_field(self):
        data = MessageWriter().string(3, "héllo").finish()
        [(field, _, value)] = list(iter_fields(data))
        assert str(value, "utf-8") == "héllo"

    def test_fixed32_field(self):
        data = MessageWriter().fixed32(4, 1.5).finish()
        [(_, wtype, raw)] = list(iter_fields(data))
        assert wtype == wire.FIXED32
        assert wire.fixed32_to_float(raw) == 1.5

    def test_fixed64_field(self):
        data = MessageWriter().fixed64(4, -2.25).finish()
        [(_, _, raw)] = list(iter_fields(data))
        assert wire.fixed64_to_double(raw) == -2.25

    def test_nested_message(self):
        inner = MessageWriter().varint(1, 7)
        data = MessageWriter().message(2, inner).finish()
        [(field, wtype, payload)] = list(iter_fields(data))
        assert wtype == wire.LENGTH_DELIMITED
        [(ifield, _, ivalue)] = list(iter_fields(payload))
        assert (ifield, ivalue) == (1, 7)

    def test_spliced_writer_equals_joined_bytes(self):
        """message(f, writer) splices chunks; the bytes must not change."""
        def leaf():
            return (MessageWriter().varint(1, 300)
                    .bytes_field(9, memoryview(bytes(range(200))))
                    .string(8, "w"))

        def middle(join):
            writer = MessageWriter().string(2, "graph")
            for _ in range(3):
                writer.message(5, leaf().finish() if join else leaf())
            return writer.message(11, MessageWriter())  # empty child

        spliced = MessageWriter().varint(1, 8).message(7, middle(False))
        joined = MessageWriter().varint(1, 8).message(
            7, middle(True).finish())
        assert spliced.finish() == joined.finish()
        # ... and the result still parses as three levels.
        (_, _, graph) = list(iter_fields(spliced.finish()))[1]
        tensors = [v for f, _w, v in iter_fields(graph) if f == 5]
        assert len(tensors) == 3
        assert dict((f, v) for f, _w, v in iter_fields(tensors[0]))[9] == \
            bytes(range(200))

    def test_multiple_fields_in_order(self):
        data = (MessageWriter().varint(1, 1).string(2, "x")
                .varint(1, 2).finish())
        fields = [(f, v) for f, _w, v in iter_fields(data)]
        assert fields == [(1, 1), (2, b"x"), (1, 2)]

    def test_truncated_length_delimited(self):
        data = encode_tag(1, wire.LENGTH_DELIMITED) + encode_varint(100)
        with pytest.raises(WireFormatError, match="overruns"):
            list(iter_fields(data))

    def test_truncated_fixed32(self):
        data = encode_tag(1, wire.FIXED32) + b"\x00\x00"
        with pytest.raises(WireFormatError, match="truncated fixed32"):
            list(iter_fields(data))


_BUFFER_TYPES = [bytes, bytearray, memoryview]


class TestZeroCopy:
    """Length-delimited values are views of the input, never copies."""

    @pytest.mark.parametrize("kind", _BUFFER_TYPES)
    def test_slice_shares_the_input_buffer(self, kind):
        payload = bytes(range(200))
        inner = MessageWriter().bytes_field(9, payload)
        data = kind(MessageWriter().varint(1, 3).message(7, inner).finish())
        owner = data.obj if isinstance(data, memoryview) else data
        [_, (_, wtype, graph)] = list(iter_fields(data))
        [(_, _, tensor)] = list(iter_fields(graph))
        assert wtype == wire.LENGTH_DELIMITED
        assert isinstance(graph, memoryview) and isinstance(tensor, memoryview)
        assert graph.obj is owner and tensor.obj is owner
        assert tensor == payload

    @pytest.mark.parametrize("kind", _BUFFER_TYPES)
    def test_overrun_guard_on_every_buffer_type(self, kind):
        data = kind(encode_tag(1, wire.LENGTH_DELIMITED) + encode_varint(100))
        with pytest.raises(WireFormatError, match="overruns"):
            list(iter_fields(data))

    @pytest.mark.parametrize("kind", _BUFFER_TYPES)
    def test_depth_guard_on_every_buffer_type(self, kind):
        data = kind(MessageWriter().varint(1, 7).finish())
        with pytest.raises(WireFormatError, match="nesting"):
            list(iter_fields(data, depth=wire.MAX_MESSAGE_DEPTH + 1))


class TestPacked:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=20))
    def test_packed_varints_roundtrip(self, values):
        data = MessageWriter().packed_varints(1, values).finish()
        [(_, _, body)] = list(iter_fields(data))
        assert decode_packed_varints(body) == values

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), max_size=20))
    def test_packed_floats_roundtrip(self, values):
        data = MessageWriter().packed_floats(1, values).finish()
        [(_, _, body)] = list(iter_fields(data))
        decoded = decode_packed_floats(body)
        assert decoded == [struct.unpack("<f", struct.pack("<f", v))[0]
                           for v in values]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    max_size=20))
    def test_packed_doubles_roundtrip(self, values):
        data = MessageWriter().packed_doubles(1, values).finish()
        [(_, _, body)] = list(iter_fields(data))
        assert decode_packed_doubles(body) == values

    def test_ragged_packed_floats_rejected(self):
        with pytest.raises(WireFormatError):
            decode_packed_floats(b"\x00\x00\x00")
