"""Engine container round-trip and fuzz battery.

Byte-stability — ``serialize(parse(data)) == data`` — is what lets caches
use file equality as artifact identity, so it is tested as a *property*
over randomized IR graphs, not on one lucky example. The fuzz half mirrors
``tests/onnx/test_fuzz_parser.py``: an engine file crosses the trust
boundary like any model file, and malformed bytes must always fail with a
catchable :class:`~repro.errors.EngineError`, never an uncontrolled
``struct.error``/``KeyError``/``MemoryError``.
"""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import synthetic_image_batch
from repro.engine import compile_graph, parse_engine, serialize_engine
from repro.engine.format import (
    _CRC,
    _PREFIX,
    _SECTION_LEN,
    ENGINE_FORMAT_VERSION,
    MAGIC,
    MAX_HEADER_BYTES,
    WEIGHT_ALIGN,
    load_engine,
    save_engine,
)
from repro.errors import EngineError
from repro.runtime.memory_planner import plan_memory
from repro.runtime.session import InferenceSession
from repro.testing import random_ir_graph

#: One small compiled engine, reused by every fuzz case (compiling inside
#: a hypothesis example would dominate the suite's runtime).
_REAL = serialize_engine(
    compile_graph(random_ir_graph(0), backend="orpheus", threads=1))


def _compiled(seed: int) -> bytes:
    return serialize_engine(
        compile_graph(random_ir_graph(seed), backend="orpheus", threads=1))


# -- byte-stability as a property ----------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 40))
def test_serialize_parse_serialize_is_byte_stable(seed):
    """The canonical-form property, over randomized graph topologies."""
    data = _compiled(seed)
    assert serialize_engine(parse_engine(data)) == data


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 40))
def test_parse_preserves_every_field(seed):
    data = _compiled(seed)
    first = parse_engine(data)
    again = parse_engine(serialize_engine(first))
    assert again.schedule == first.schedule
    assert again.kernel_plan == first.kernel_plan
    assert again.fallback_plan == first.fallback_plan
    assert again.value_types == first.value_types
    assert again.fingerprint == first.fingerprint
    assert again.tuned == first.tuned
    assert again.metadata == first.metadata
    assert set(again.graph.initializers) == set(first.graph.initializers)
    for name, weight in first.graph.initializers.items():
        np.testing.assert_array_equal(again.graph.initializers[name], weight)


def test_file_round_trip_and_read_only_weights(tmp_path):
    path = tmp_path / "round.oeng"
    engine = parse_engine(_REAL)
    written = save_engine(engine, path)
    assert written == len(_REAL) == path.stat().st_size
    loaded = load_engine(path)
    assert serialize_engine(loaded) == _REAL
    for weight in loaded.graph.initializers.values():
        # Aligned (the bitwise warm == cold guarantee) and immutable.
        assert weight.ctypes.data % WEIGHT_ALIGN == 0
        assert not weight.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            weight[...] = 0


# -- fuzzing -------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(st.binary(min_size=0, max_size=300))
def test_random_bytes_never_crash(data):
    """Arbitrary bytes: parse cleanly or raise EngineError, nothing else."""
    try:
        parse_engine(data)
    except EngineError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_truncated_engine_never_crashes(data):
    """Prefixes of a real engine: the hard case for length-prefixed formats."""
    cut = data.draw(st.integers(0, len(_REAL) - 1))
    with pytest.raises(EngineError):
        parse_engine(_REAL[:cut])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bitflipped_engine_never_crashes(data):
    """A flipped bit anywhere must be caught (usually by the checksum)."""
    flipped = bytearray(_REAL)
    position = data.draw(st.integers(0, len(flipped) - 1))
    bit = data.draw(st.integers(0, 7))
    flipped[position] ^= 1 << bit
    try:
        parse_engine(bytes(flipped))
    except EngineError:
        pass
    # A flip inside JSON string content can survive the crc only if the
    # crc itself was flipped to match — impossible for a single bit — so
    # in practice every example raises; the contract under test is only
    # that nothing *else* ever escapes.


# -- specific corruptions ------------------------------------------------------


def _rebuild(header_mutator=None, pad_byte=None):
    """Re-pack _REAL with a mutated header and a *correct* crc.

    Fuzzing cannot reach past the checksum; these targeted rebuilds can,
    proving the post-crc validation (cross-references, alignment, padding)
    stands on its own.
    """
    magic, version, header_len = _PREFIX.unpack_from(_REAL, 0)
    offset = _PREFIX.size
    header = json.loads(_REAL[offset:offset + header_len].decode("utf-8"))
    offset += header_len
    (graph_len,) = _SECTION_LEN.unpack_from(_REAL, offset)
    offset += _SECTION_LEN.size
    graph_bytes = _REAL[offset:offset + graph_len]
    offset += graph_len
    (weights_len,) = _SECTION_LEN.unpack_from(_REAL, offset)
    offset += _SECTION_LEN.size
    offset += -offset % WEIGHT_ALIGN    # the original file's own padding
    if header_mutator is not None:
        header_mutator(header)
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob_start = (_PREFIX.size + len(header_bytes) + 2 * _SECTION_LEN.size
                  + len(graph_bytes))
    padding = bytearray(b"\x00" * (-blob_start % WEIGHT_ALIGN))
    if pad_byte is not None and padding:
        padding[0] = pad_byte
    body = b"".join((
        _PREFIX.pack(magic, version, len(header_bytes)),
        header_bytes,
        _SECTION_LEN.pack(graph_len),
        graph_bytes,
        _SECTION_LEN.pack(weights_len),
        bytes(padding),
        _REAL[offset:offset + weights_len],
    ))
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


class TestSpecificCorruptions:
    def test_empty_file_rejected(self):
        with pytest.raises(EngineError, match="bytes"):
            parse_engine(b"")

    def test_wrong_magic_rejected(self):
        bad = b"NOTMAGIC" + _REAL[8:]
        with pytest.raises(EngineError, match="magic"):
            parse_engine(bad)

    def test_future_version_rejected(self):
        prefix = _PREFIX.pack(MAGIC, ENGINE_FORMAT_VERSION + 1,
                              struct.unpack_from("<I", _REAL, 10)[0])
        with pytest.raises(EngineError, match="version"):
            parse_engine(prefix + _REAL[_PREFIX.size:])

    def test_oversized_header_claim_rejected_before_allocation(self):
        prefix = _PREFIX.pack(MAGIC, ENGINE_FORMAT_VERSION,
                              MAX_HEADER_BYTES + 1)
        with pytest.raises(EngineError, match="cap"):
            parse_engine(prefix + _REAL[_PREFIX.size:])

    def test_checksum_mismatch_rejected(self):
        corrupt = _REAL[:-1] + bytes([_REAL[-1] ^ 0xFF])
        with pytest.raises(EngineError, match="checksum"):
            parse_engine(corrupt)

    def test_nonzero_padding_rejected(self):
        """Non-canonical padding fails even with a fixed-up checksum."""
        with pytest.raises(EngineError, match="padding"):
            parse_engine(_rebuild(pad_byte=0x41))

    def test_misaligned_weight_offset_rejected(self):
        def skew(header):
            name = sorted(header["weights"])[0]
            header["weights"][name][0] += 4  # off the WEIGHT_ALIGN grid
        with pytest.raises(EngineError, match="align|section"):
            parse_engine(_rebuild(skew))

    def test_weight_index_outside_blob_rejected(self):
        def overrun(header):
            name = sorted(header["weights"])[0]
            header["weights"][name][0] = 1 << 40
        with pytest.raises(EngineError, match="outside|align"):
            parse_engine(_rebuild(overrun))

    def test_schedule_mismatch_rejected(self):
        def drop(header):
            header["schedule"] = header["schedule"][:-1]
        with pytest.raises(EngineError, match="schedule"):
            parse_engine(_rebuild(drop))

    def test_fallback_chain_must_start_with_winner(self):
        def desync(header):
            name = sorted(header["fallback_plan"])[0]
            header["fallback_plan"][name] = ["definitely_not_the_winner"]
        with pytest.raises(EngineError, match="fallback_plan"):
            parse_engine(_rebuild(desync))

    def test_missing_header_key_rejected(self):
        def strip(header):
            del header["kernel_plan"]
        with pytest.raises(EngineError, match="kernel_plan"):
            parse_engine(_rebuild(strip))

    def test_load_engine_missing_file(self, tmp_path):
        with pytest.raises(EngineError, match="stat"):
            load_engine(tmp_path / "nope.oeng")


# -- files from the previous writer --------------------------------------------


def _parent_plan(release_early: bool) -> dict:
    """The ``memory_plan`` header key as the previous writer emitted it:
    liveness plus arena slots (here one slot per intermediate). With
    ``release_early``, one value is freed at its producer's step, before
    the node that reads it has run."""
    engine = parse_engine(_REAL)
    nodes = {node.name: node for node in engine.graph.nodes}
    schedule = [nodes[name] for name in engine.schedule]
    plan = plan_memory(engine.graph, engine.value_types, schedule)
    produced_at = {out: step for step, node in enumerate(schedule)
                   for out in node.outputs}
    release = {step: sorted(values)
               for step, values in plan.release_after.items()}
    dead_at = {value: step for step, values in release.items()
               for value in values}
    assignments = {}
    for slot, value in enumerate(sorted(dead_at)):
        shape, dtype = engine.value_types[value]
        assignments[value] = [slot, int(np.prod(shape)) * dtype.itemsize,
                              produced_at[value], dead_at[value]]
    if release_early:
        value = next(v for v in sorted(dead_at)
                     if dead_at[v] > produced_at[v])
        release[dead_at[value]].remove(value)
        release.setdefault(produced_at[value], []).append(value)
    return {
        "release_after": {str(step): values
                          for step, values in sorted(release.items())},
        "assignments": assignments,
        "slot_sizes": [entry[1] for entry in assignments.values()],
        "peak_bytes": plan.peak_bytes,
        "total_activation_bytes": plan.total_activation_bytes,
        "weight_bytes": plan.weight_bytes,
    }


@pytest.mark.parametrize("release_early", [False, True],
                         ids=["valid-plan", "early-release"])
def test_parent_layout_header_loads_and_runs_as_cold(release_early):
    """A stored ``memory_plan`` is ignored: the plan is derived from the
    schedule, so even a release that frees a value before its reader runs
    never reaches the executor (it used to, as a ``KeyError`` mid-run)."""
    data = _rebuild(lambda header: header.update(
        memory_plan=_parent_plan(release_early)))
    warm = InferenceSession.from_engine(parse_engine(data))
    cold = InferenceSession(random_ir_graph(0), backend="orpheus", threads=1)
    info = cold.graph.inputs[0]
    feed = {info.name: synthetic_image_batch(tuple(info.shape), seed=0)}
    want = cold.run(feed)
    got = warm.run(feed)
    assert warm.memory_plan == cold.memory_plan
    for name in want:
        assert got[name].tobytes() == want[name].tobytes()
