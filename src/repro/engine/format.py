"""The versioned on-disk engine container.

Layout (all integers little-endian)::

    offset      size  field
    0           8     magic  b"ORPHENG\\0"
    8           2     format version (u16)
    10          4     header length H (u32)
    14          H     JSON header (UTF-8, sorted keys, compact separators)
    14+H        8     graph length G (u64)
    22+H        G     ONNX ModelProto bytes of the simplified graph
                      *structure* (weights replaced by empty placeholders)
    22+H+G      8     weights length W (u64)
    30+H+G      P     zero padding so the weight section starts on a
                      WEIGHT_ALIGN boundary *in the file* (P = -((30+H+G)
                      mod WEIGHT_ALIGN) mod WEIGHT_ALIGN, recomputed by
                      the parser, never stored)
    30+H+G+P    W     raw weight payloads, each WEIGHT_ALIGN-aligned
    30+H+G+P+W  4     crc32 over everything before this field (u32)

Weights deliberately do not ride inside the ONNX bytes: the from-scratch
protobuf reader decodes without copying, but then copies each payload once
into an array of its own (ResNet-50 carries ~100 MB); the raw section needs
no copy at all. The header's ``weights`` index maps each initializer to
``[offset, nbytes, dtype, shape]`` inside the raw section, and loading
reconstructs arrays as views into one buffer — this is what makes warm
startup an order of magnitude faster than cold prepare. Because the file
pads the weight section to a :data:`WEIGHT_ALIGN` boundary,
:func:`load_engine` can read the whole file straight into one aligned
buffer and hand out *zero-copy* views; :func:`parse_engine` on arbitrary
``bytes`` falls back to a single bulk copy when the buffer happens to be
misaligned. Either way every view is read-only, which doubles as a
guarantee: nothing can silently mutate a loaded engine's weights.

Writing streams. The weight index (offsets and padding) is computed
without touching a payload, and every check that can fail — dtypes and
the three size caps — runs before the first byte goes out. The chunks
then follow in file order: prefix, header, graph section, padding, and
each payload as a byte view of its C-contiguous array, with
``zlib.crc32(chunk, crc)`` folded in once per chunk. :func:`save_engine`
therefore holds at most one initializer's worth of copies (a
non-contiguous one, made contiguous as it is reached) and
:func:`serialize_engine`'s result is its only full-size allocation.

The JSON header carries everything else prepare computes: the execution
schedule, per-node kernel choice and fallback chain, inferred value
types, tuned overrides, and the host/config fingerprint. Keys are sorted
and separators compact so that ``serialize(parse(data)) == data`` —
byte-stability lets caches use file equality as artifact identity.

The memory plan is not stored: it is a pure function of graph, value
types and schedule, so the executor derives it at load exactly as at
cold prepare. Older files still carry a ``memory_plan`` header key; the
parser ignores keys it does not require, so they load, and their stored
plan is never read.

Parsing mirrors the ONNX reader's hardening: every length is validated
against the remaining buffer, sections are size-capped, the checksum is
verified before any JSON or protobuf decoding happens, and every failure
(truncation, bit flips, wrong types, impossible cross-references) raises
:class:`~repro.errors.EngineError` — never an uncontrolled
``KeyError``/``struct.error``/``MemoryError``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import struct
import zlib
from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.errors import EngineError, OnnxError
from repro.ir.graph import Graph
from repro.onnx.reader import load_model_bytes
from repro.onnx.writer import save_model_bytes
from repro.runtime.memory_planner import plan_memory
from repro.tensor.dtype import DType

MAGIC = b"ORPHENG\x00"
#: Version 2 added the ``quantization`` header section: engines compiled
#: against a ``quantize=True`` backend freeze their calibrated graph and
#: record the transform report, so a warm start never re-calibrates.
ENGINE_FORMAT_VERSION = 2

#: Size caps, mirroring the ONNX reader's defensive limits. A header over
#: 64 MiB, structure over 256 MiB, or weights over 4 GiB is corruption,
#: not a real edge model.
MAX_HEADER_BYTES = 64 << 20
MAX_GRAPH_BYTES = 256 << 20
MAX_WEIGHT_BYTES = 4 << 30

_PREFIX = struct.Struct("<8sHI")   # magic, version, header length
_SECTION_LEN = struct.Struct("<Q")
_CRC = struct.Struct("<I")

_MIN_FILE_BYTES = _PREFIX.size + 2 * _SECTION_LEN.size + _CRC.size

_REQUIRED_HEADER_KEYS = (
    "fingerprint", "schedule", "kernel_plan", "fallback_plan",
    "value_types", "weights", "tuned", "metadata",
    "quantization",
)


@dataclasses.dataclass(frozen=True)
class Engine:
    """A compiled model: the output of prepare, ready to reload.

    Attributes:
        graph: the *simplified* graph (passes already applied; may carry
            the framework-internal fused ``activation`` attribute).
        schedule: node names in execution order (the frozen toposort).
        kernel_plan: node name -> winning implementation name.
        fallback_plan: node name -> full ordered implementation chain
            (first entry equals ``kernel_plan[name]``).
        value_types: value name -> (shape, dtype) from shape inference.
        fingerprint: host + config + source-model identity
            (see :mod:`repro.engine.fingerprint`).
        tuned: node name -> implementation name chosen by autotuning at
            compile time (already reflected in ``kernel_plan``; kept
            separately so ``engine-info`` can report what tuning changed).
        metadata: free-form strings (model name, compile options).
        quantization: the post-training-quantization report
            (:meth:`repro.quant.quantize.QuantizationReport.as_dict`) when
            the engine was compiled against a ``quantize=True`` backend;
            ``None`` for float engines. The quantized graph itself — Q/DQ
            nodes, int8 weights, scales, zero points — ships in ``graph``,
            so a warm start never re-calibrates.
    """

    graph: Graph
    schedule: tuple[str, ...]
    kernel_plan: dict[str, str]
    fallback_plan: dict[str, tuple[str, ...]]
    value_types: dict[str, tuple[tuple[int, ...], DType]]
    fingerprint: dict[str, Any]
    tuned: dict[str, str] = dataclasses.field(default_factory=dict)
    metadata: dict[str, Any] = dataclasses.field(default_factory=dict)
    quantization: dict[str, int] | None = None

    def info(self) -> dict[str, Any]:
        """Summary dict for ``repro engine-info`` and logs."""
        nodes = {node.name: node for node in self.graph.nodes}
        plan = plan_memory(self.graph, self.value_types,
                           [nodes[name] for name in self.schedule])
        return {
            "format_version": ENGINE_FORMAT_VERSION,
            "graph": self.graph.name,
            "nodes": len(self.graph.nodes),
            "schedule_length": len(self.schedule),
            "parameters": self.graph.num_parameters(),
            "weight_bytes": plan.weight_bytes,
            "peak_activation_bytes": plan.peak_bytes,
            "tuned_nodes": len(self.tuned),
            "kernels": sorted(set(self.kernel_plan.values())),
            "fingerprint": dict(self.fingerprint),
            "metadata": dict(self.metadata),
            "quantization": (None if self.quantization is None
                             else dict(self.quantization)),
        }


# -- serialization ---------------------------------------------------------------


#: Every weight payload starts on a multiple of this within the blob, and
#: the parser rebuilds the blob at this alignment in memory. Misaligned
#: float buffers are not just slower: BLAS takes different (differently
#: rounded) code paths for them, which would break the engine's bitwise
#: warm == cold guarantee.
WEIGHT_ALIGN = 64


def _index_weights(
    graph: Graph,
) -> tuple[dict[str, list], list[tuple[int, np.ndarray]], int]:
    """Lay out the raw weight section without copying a payload.

    Payloads go in sorted-name order — a deterministic layout is half of
    the byte-stability contract — each zero-padded to start
    :data:`WEIGHT_ALIGN`-aligned within the section. Returns the header
    index, ``(padding, array)`` pairs in that order, and the section length.
    """
    index: dict[str, list] = {}
    payloads: list[tuple[int, np.ndarray]] = []
    offset = 0
    for name in sorted(graph.initializers):
        array = np.asarray(graph.initializers[name])
        try:
            dtype = DType.from_numpy(array.dtype)
        except ValueError as exc:
            raise EngineError(
                f"initializer {name!r} has unserializable dtype "
                f"{array.dtype}: {exc}") from exc
        padding = -offset % WEIGHT_ALIGN
        offset += padding
        # The array's own shape: a 0-d initializer must reload as 0-d.
        index[name] = [offset, array.nbytes, dtype.value, list(array.shape)]
        payloads.append((padding, array))
        offset += array.nbytes
    return index, payloads, offset


def _structure_only(graph: Graph) -> Graph:
    """The graph with weight payloads stripped to empty placeholders.

    The ONNX section only has to carry *structure*; real payloads live in
    the raw weight section. Placeholders keep the graph valid for the
    writer (initializer names must exist for ``validate`` to pass).
    """
    # Sorted order, matching the weight index: initializer order inside
    # the ONNX bytes must be canonical for serialization to be byte-stable.
    placeholders = {
        name: np.empty(0, dtype=graph.initializers[name].dtype)
        for name in sorted(graph.initializers)
    }
    return Graph(
        name=graph.name,
        inputs=graph.inputs,
        outputs=graph.outputs,
        nodes=graph.nodes,
        initializers=placeholders,
    )


def _container(engine: Engine) -> Iterator[bytes | memoryview]:
    """The container's bytes before the crc, as a stream of chunks.

    Every check that can fail runs here, before the stream is returned;
    iterating it only hands out the chunks (see the module docstring).
    """
    weight_index, payloads, weights_len = _index_weights(engine.graph)
    header = {
        "fingerprint": engine.fingerprint,
        "schedule": list(engine.schedule),
        "kernel_plan": engine.kernel_plan,
        "fallback_plan": {
            name: list(chain) for name, chain in engine.fallback_plan.items()
        },
        "value_types": {
            name: [list(shape), dtype.value]
            for name, (shape, dtype) in engine.value_types.items()
        },
        "weights": weight_index,
        "tuned": engine.tuned,
        "metadata": engine.metadata,
        "quantization": engine.quantization,
    }
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise EngineError(
            f"engine header is {len(header_bytes)} bytes, over the "
            f"{MAX_HEADER_BYTES}-byte cap")
    graph_bytes = save_model_bytes(_structure_only(engine.graph), internal=True)
    if len(graph_bytes) > MAX_GRAPH_BYTES:
        raise EngineError(
            f"embedded graph is {len(graph_bytes)} bytes, over the "
            f"{MAX_GRAPH_BYTES}-byte cap")
    if weights_len > MAX_WEIGHT_BYTES:
        raise EngineError(
            f"weight section is {weights_len} bytes, over the "
            f"{MAX_WEIGHT_BYTES}-byte cap")
    blob_start = (_PREFIX.size + len(header_bytes) + 2 * _SECTION_LEN.size
                  + len(graph_bytes))
    head = (
        _PREFIX.pack(MAGIC, ENGINE_FORMAT_VERSION, len(header_bytes)),
        header_bytes,
        _SECTION_LEN.pack(len(graph_bytes)),
        graph_bytes,
        _SECTION_LEN.pack(weights_len),
        # File-level alignment: with the weight section starting on a
        # WEIGHT_ALIGN boundary *in the file*, a loader that reads into an
        # aligned buffer gets aligned zero-copy weight views for free.
        b"\x00" * (-blob_start % WEIGHT_ALIGN),
    )
    return _stream(head, payloads)


def _stream(
    head: tuple[bytes, ...], payloads: list[tuple[int, np.ndarray]],
) -> Iterator[bytes | memoryview]:
    """``head``, then each payload's padding and byte view, in order."""
    yield from head
    for padding, array in payloads:
        if padding:
            yield b"\x00" * padding
        if array.size:
            yield memoryview(np.ascontiguousarray(array)).cast("B")


def serialize_engine(engine: Engine) -> bytes:
    """Engine -> container bytes. Deterministic for a given engine.

    The result is the one full-size allocation: it is joined once from
    views of the weights' own memory.
    """
    chunks = list(_container(engine))
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    chunks.append(_CRC.pack(crc))
    return b"".join(chunks)


def save_engine(engine: Engine, path: str | os.PathLike[str]) -> int:
    """Write ``engine`` to ``path`` atomically; returns bytes written.

    The container streams into ``<path>.tmp.<pid>`` chunk by chunk, the
    crc updated as each goes out, so no full-file buffer exists; the tmp
    file then replaces ``path``. Any failure — an unwritable dtype or an
    oversized section before the tmp file is opened, a write or fsync
    error after — leaves ``path`` as it was and no tmp file behind.
    """
    chunks = _container(engine)
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    crc = written = 0
    try:
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
                crc = zlib.crc32(chunk, crc)
                written += len(chunk)
            handle.write(_CRC.pack(crc))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return written + _CRC.size


# -- parsing ---------------------------------------------------------------------


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise EngineError(message)


def _str_dict(value: Any, what: str) -> dict[str, Any]:
    _expect(isinstance(value, dict), f"engine header: {what} must be an object")
    for key in value:
        _expect(isinstance(key, str), f"engine header: {what} has non-string key")
    return value


def _parse_value_types(
    raw: Any,
) -> dict[str, tuple[tuple[int, ...], DType]]:
    table = _str_dict(raw, "value_types")
    parsed: dict[str, tuple[tuple[int, ...], DType]] = {}
    for name, entry in table.items():
        _expect(
            isinstance(entry, list) and len(entry) == 2
            and isinstance(entry[0], list)
            and all(isinstance(dim, int) for dim in entry[0])
            and isinstance(entry[1], str),
            f"engine header: value_types[{name!r}] is malformed")
        try:
            dtype = DType(entry[1])
        except ValueError:
            raise EngineError(
                f"engine header: value_types[{name!r}] has unknown dtype "
                f"{entry[1]!r}") from None
        parsed[name] = (tuple(entry[0]), dtype)
    return parsed


def _aligned_buffer(nbytes: int) -> np.ndarray:
    """A zeroed-out view of ``nbytes`` starting on a WEIGHT_ALIGN boundary."""
    backing = np.empty(nbytes + WEIGHT_ALIGN, dtype=np.uint8)
    shift = -backing.ctypes.data % WEIGHT_ALIGN
    return backing[shift:shift + nbytes]


def _aligned_blob(blob: memoryview) -> np.ndarray:
    """The weight section at a WEIGHT_ALIGN-aligned address, copying if needed.

    Misaligned float buffers do not just run slower: BLAS takes different
    (differently rounded) code paths for them, which would break the
    engine's bitwise warm == cold guarantee. Buffers that are already
    aligned — :func:`load_engine` reads the padded file straight into one —
    are used as-is, zero-copy; anything else pays a single bulk memcpy
    (hundreds of µs even for ResNet-50's weights).
    """
    flat = np.frombuffer(blob, dtype=np.uint8)
    if flat.ctypes.data % WEIGHT_ALIGN == 0:
        return flat
    aligned = _aligned_buffer(len(blob))
    aligned[:] = flat
    return aligned


def _parse_weights(
    raw: Any, blob: memoryview, graph: Graph,
) -> dict[str, np.ndarray]:
    """Rebuild initializer arrays as read-only views into the raw section."""
    index = _str_dict(raw, "weights")
    _expect(set(index) == set(graph.initializers),
            "engine header: weight index does not match the graph's "
            "initializers")
    aligned = _aligned_blob(blob)
    arrays: dict[str, np.ndarray] = {}
    for name, entry in index.items():
        _expect(
            isinstance(entry, list) and len(entry) == 4
            and isinstance(entry[0], int) and isinstance(entry[1], int)
            and isinstance(entry[2], str) and isinstance(entry[3], list)
            and all(isinstance(dim, int) and dim >= 0 for dim in entry[3]),
            f"engine header: weights[{name!r}] is malformed")
        offset, nbytes, dtype_name, shape = entry
        try:
            dtype = DType(dtype_name)
        except ValueError:
            raise EngineError(
                f"engine header: weights[{name!r}] has unknown dtype "
                f"{dtype_name!r}") from None
        count = 1
        for dim in shape:
            count *= dim
        _expect(nbytes == count * dtype.itemsize,
                f"engine header: weights[{name!r}] claims {nbytes} bytes for "
                f"shape {shape} of {dtype.value}")
        _expect(0 <= offset and offset + nbytes <= len(blob),
                f"engine header: weights[{name!r}] points outside the "
                f"{len(blob)}-byte weight section")
        _expect(offset % WEIGHT_ALIGN == 0,
                f"engine header: weights[{name!r}] offset {offset} is not "
                f"{WEIGHT_ALIGN}-byte aligned")
        array = aligned[offset:offset + nbytes].view(dtype.np).reshape(shape)
        array.flags.writeable = False
        arrays[name] = array
    return arrays


def parse_engine(data: "bytes | np.ndarray") -> Engine:
    """Container bytes -> :class:`Engine`, with full hardening.

    Accepts any C-contiguous byte buffer. When the buffer starts on a
    :data:`WEIGHT_ALIGN` boundary (as :func:`load_engine` arranges) the
    returned engine's weights are zero-copy views into it; otherwise the
    weight section is copied once to an aligned address.

    Raises:
        EngineError: on any structural problem — truncation, bad magic,
            unknown version, oversized sections, checksum mismatch,
            malformed JSON, an unparseable embedded graph, or plans that
            do not cross-reference the graph they ship with.
    """
    view = memoryview(data)
    _expect(len(data) >= _MIN_FILE_BYTES,
            f"engine file is {len(data)} bytes; even an empty engine needs "
            f"{_MIN_FILE_BYTES}")
    magic, version, header_len = _PREFIX.unpack_from(data, 0)
    _expect(magic == MAGIC,
            f"not an engine file (magic {magic!r}, expected {MAGIC!r})")
    _expect(version == ENGINE_FORMAT_VERSION,
            f"engine format version {version} is not supported "
            f"(this runtime reads version {ENGINE_FORMAT_VERSION})")
    _expect(header_len <= MAX_HEADER_BYTES,
            f"engine header claims {header_len} bytes, over the "
            f"{MAX_HEADER_BYTES}-byte cap")
    offset = _PREFIX.size
    _expect(offset + header_len + _SECTION_LEN.size + _CRC.size <= len(data),
            "engine file truncated inside the header")
    header_bytes = bytes(view[offset:offset + header_len])
    offset += header_len
    (graph_len,) = _SECTION_LEN.unpack_from(data, offset)
    offset += _SECTION_LEN.size
    _expect(graph_len <= MAX_GRAPH_BYTES,
            f"embedded graph claims {graph_len} bytes, over the "
            f"{MAX_GRAPH_BYTES}-byte cap")
    _expect(offset + graph_len + _SECTION_LEN.size + _CRC.size <= len(data),
            "engine file truncated inside the graph section")
    graph_bytes = bytes(view[offset:offset + graph_len])
    offset += graph_len
    (weights_len,) = _SECTION_LEN.unpack_from(data, offset)
    offset += _SECTION_LEN.size
    _expect(weights_len <= MAX_WEIGHT_BYTES,
            f"weight section claims {weights_len} bytes, over the "
            f"{MAX_WEIGHT_BYTES}-byte cap")
    padding = -offset % WEIGHT_ALIGN
    _expect(offset + padding + weights_len + _CRC.size == len(data),
            "engine file length does not match its section lengths")
    # Zero padding is part of the canonical form: anything else would
    # survive parsing but not re-serialize to the same bytes.
    _expect(bytes(view[offset:offset + padding]) == b"\x00" * padding,
            "engine file has non-zero weight-section padding")
    offset += padding
    weights_blob = view[offset:offset + weights_len]
    offset += weights_len
    (stored_crc,) = _CRC.unpack_from(data, offset)
    actual_crc = zlib.crc32(view[:offset]) & 0xFFFFFFFF
    _expect(stored_crc == actual_crc,
            f"engine checksum mismatch (stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}); the file is corrupt")

    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EngineError(f"engine header is not valid JSON: {exc}") from exc
    header = _str_dict(header, "root")
    for key in _REQUIRED_HEADER_KEYS:
        _expect(key in header, f"engine header missing {key!r}")

    try:
        graph = load_model_bytes(graph_bytes)
    except OnnxError as exc:
        raise EngineError(f"embedded engine graph is unreadable: {exc}") from exc
    graph.initializers = _parse_weights(header["weights"], weights_blob, graph)

    schedule = header["schedule"]
    _expect(
        isinstance(schedule, list)
        and all(isinstance(name, str) for name in schedule),
        "engine header: schedule must be a list of node names")
    node_names = {node.name for node in graph.nodes}
    _expect(len(schedule) == len(graph.nodes)
            and len(set(schedule)) == len(schedule)
            and set(schedule) == node_names,
            "engine header: schedule does not enumerate the graph's nodes")

    kernel_plan = _str_dict(header["kernel_plan"], "kernel_plan")
    for name, impl in kernel_plan.items():
        _expect(isinstance(impl, str),
                f"engine header: kernel_plan[{name!r}] must be a string")
    _expect(set(kernel_plan) == node_names,
            "engine header: kernel_plan does not cover the graph's nodes")

    fallback_raw = _str_dict(header["fallback_plan"], "fallback_plan")
    _expect(set(fallback_raw) == node_names,
            "engine header: fallback_plan does not cover the graph's nodes")
    fallback_plan: dict[str, tuple[str, ...]] = {}
    for name, chain in fallback_raw.items():
        _expect(
            isinstance(chain, list) and chain
            and all(isinstance(impl, str) for impl in chain),
            f"engine header: fallback_plan[{name!r}] must be a non-empty "
            f"list of implementation names")
        _expect(chain[0] == kernel_plan[name],
                f"engine header: fallback_plan[{name!r}] does not start with "
                f"the kernel_plan winner {kernel_plan[name]!r}")
        fallback_plan[name] = tuple(chain)

    value_types = _parse_value_types(header["value_types"])
    produced = set(graph.input_names) | set(graph.initializers)
    for node in graph.nodes:
        produced.update(node.outputs)
    missing = {
        name for node in graph.nodes for name in node.outputs
    } - set(value_types)
    _expect(not missing,
            f"engine header: value_types missing node outputs "
            f"{sorted(missing)[:5]}")
    _expect(set(value_types) <= produced,
            "engine header: value_types names values the graph never produces")

    tuned = _str_dict(header["tuned"], "tuned")
    for name, impl in tuned.items():
        _expect(isinstance(impl, str) and name in node_names,
                f"engine header: tuned[{name!r}] does not name a graph node")

    fingerprint = _str_dict(header["fingerprint"], "fingerprint")
    metadata = _str_dict(header["metadata"], "metadata")

    quantization = header["quantization"]
    if quantization is not None:
        quantization = _str_dict(quantization, "quantization")
        for key, value in quantization.items():
            _expect(isinstance(value, int) and not isinstance(value, bool)
                    and value >= 0,
                    f"engine header: quantization[{key!r}] must be a "
                    f"non-negative count")

    return Engine(
        graph=graph,
        schedule=tuple(schedule),
        kernel_plan=dict(kernel_plan),
        fallback_plan=fallback_plan,
        value_types=value_types,
        fingerprint=fingerprint,
        tuned=dict(tuned),
        metadata=metadata,
        quantization=None if quantization is None else dict(quantization),
    )


def load_engine(path: str | os.PathLike[str]) -> Engine:
    """Read and parse an engine file.

    Raises:
        EngineError: unreadable file or any :func:`parse_engine` failure.
    """
    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise EngineError(f"cannot stat engine file {path!r}: {exc}") from exc
    cap = (_MIN_FILE_BYTES + MAX_HEADER_BYTES + MAX_GRAPH_BYTES
           + MAX_WEIGHT_BYTES)
    _expect(size <= cap,
            f"engine file {path!r} is {size} bytes, over the {cap}-byte cap")
    # Read straight into a WEIGHT_ALIGN-aligned buffer: combined with the
    # file-level weight-section padding this makes every weight view
    # zero-copy, the difference between warm load and a second memcpy of
    # the whole parameter set.
    buffer = _aligned_buffer(size)
    try:
        with open(path, "rb") as handle:
            read = handle.readinto(memoryview(buffer))
    except OSError as exc:
        raise EngineError(f"cannot read engine file {path!r}: {exc}") from exc
    _expect(read == size,
            f"engine file {path!r} shrank while being read "
            f"({read} of {size} bytes)")
    return parse_engine(buffer)
