"""The streaming engine writer: what it allocates, what it writes, how it fails.

Footprints are counted with ``tracemalloc``, never timed. Joining
``tobytes()`` copies into a blob, the blob into a body and the body into
``body + crc`` peaked at 3.0x the weight bytes; the writer now streams
views of the weights' own memory.
"""

import dataclasses
import hashlib
import os
import tracemalloc
import zlib

import numpy as np
import pytest

import repro.engine.format as engine_format
from repro.engine import compile_graph, parse_engine, serialize_engine
from repro.engine.fingerprint import graph_digest
from repro.engine.format import load_engine, save_engine
from repro.errors import EngineError
from repro.ir.graph import Graph, ValueInfo
from repro.ir.node import Node
from repro.models import zoo
from repro.runtime.session import InferenceSession
from repro.tensor.dtype import DType
from tests.conftest import tiny_classifier

_ZOO_MODELS = ["inception-v3", "mobilenet-v1", "resnet18", "resnet50",
               "squeezenet", "wrn-40-2"]

_MIB = 1 << 20


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _with_initializers(engine, extras):
    graph = engine.graph
    graph = Graph(name=graph.name, inputs=graph.inputs, outputs=graph.outputs,
                  nodes=graph.nodes,
                  initializers={**graph.initializers, **extras})
    return dataclasses.replace(engine, graph=graph)


#: Every initializer layout the writer has to get right: 0-d, zero-size,
#: non-contiguous, int64 and bool.
_ODD_INITIALIZERS = {
    "scalar": np.array(2.5, dtype=np.float32),
    "empty": np.empty((0, 3), dtype=np.float32),
    "transposed": np.arange(12, dtype=np.float32).reshape(3, 4).T,
    "int64": np.arange(-3, 4, dtype=np.int64),
    "flags": np.array([True, False, True]),
}


def _compile(label):
    if label == "wrn-40-2-int8":
        return compile_graph(zoo.build("wrn-40-2"), backend="int8", threads=1)
    if label == "odd-initializers":
        return _with_initializers(
            compile_graph(tiny_classifier(), backend="orpheus", threads=1),
            _ODD_INITIALIZERS)
    return compile_graph(zoo.build(label), backend="orpheus", threads=1)


@pytest.fixture(scope="module", params=_ZOO_MODELS)
def zoo_engine(request):
    return _compile(request.param)


class TestWriterFootprint:
    def test_save_engine_holds_one_initializer_at_most(self, zoo_engine,
                                                       tmp_path):
        """Only a non-contiguous initializer is ever copied, one at a time."""
        largest = max(array.nbytes
                      for array in zoo_engine.graph.initializers.values())
        _, peak = _traced_peak(save_engine, zoo_engine, tmp_path / "e.oeng")
        assert peak <= largest + _MIB, (peak, largest)

    def test_serialize_engine_result_is_the_only_full_copy(self, zoo_engine):
        data, peak = _traced_peak(serialize_engine, zoo_engine)
        assert peak <= len(data) + _MIB, (peak, len(data))


# -- byte identity ---------------------------------------------------------------


@pytest.mark.parametrize(
    "label", [*_ZOO_MODELS, "wrn-40-2-int8", "odd-initializers"])
def test_saved_serialized_and_reserialized_bytes_agree(label, tmp_path):
    engine = _compile(label)
    path = tmp_path / f"{label}.oeng"
    written = save_engine(engine, path)
    on_disk = path.read_bytes()
    assert written == len(on_disk)
    assert on_disk == serialize_engine(engine)
    assert serialize_engine(parse_engine(on_disk)) == on_disk
    assert serialize_engine(load_engine(path)) == on_disk


def test_odd_initializers_round_trip_with_their_own_shapes():
    loaded = parse_engine(serialize_engine(
        _compile("odd-initializers"))).graph.initializers
    for name, array in _ODD_INITIALIZERS.items():
        assert loaded[name].shape == array.shape, name
        assert loaded[name].dtype == array.dtype, name
        np.testing.assert_array_equal(loaded[name], array)


# -- 0-d initializers ------------------------------------------------------------


def _scalar_gather_graph() -> Graph:
    """``Gather(axis=0)`` with a 0-d index: drops the gathered axis."""
    return Graph(
        name="scalar-gather",
        inputs=[ValueInfo("x", (3, 4), DType.FLOAT32)],
        outputs=[ValueInfo("y", (4,), DType.FLOAT32)],
        nodes=[Node("Gather", ["x", "index"], ["y"], {"axis": 0},
                    name="gather")],
        initializers={"index": np.array(1, dtype=np.int64)},
    )


def test_zero_d_initializer_reloads_zero_d():
    engine = parse_engine(serialize_engine(
        compile_graph(_scalar_gather_graph(), backend="orpheus", threads=1)))
    index = engine.graph.initializers["index"]
    assert index.shape == ()
    assert engine.value_types["index"][0] == index.shape


def test_zero_d_gather_warm_equals_cold():
    graph = _scalar_gather_graph()
    engine = parse_engine(serialize_engine(
        compile_graph(graph, backend="orpheus", threads=1)))
    feed = {"x": np.arange(12, dtype=np.float32).reshape(3, 4)}
    cold = InferenceSession(graph, backend="orpheus", threads=1).run(feed)["y"]
    warm = InferenceSession.from_engine(engine).run(feed)["y"]
    assert cold.shape == warm.shape == (4,)
    assert warm.tobytes() == cold.tobytes()


# -- failures ------------------------------------------------------------------


def test_failed_fsync_leaves_no_tmp_and_keeps_the_old_file(tmp_path,
                                                           monkeypatch):
    engine = compile_graph(tiny_classifier(), backend="orpheus", threads=1)
    path = tmp_path / "model.oeng"
    path.write_bytes(b"the previous engine")

    def broken_fsync(fd):
        raise OSError("disk went away")

    monkeypatch.setattr(os, "fsync", broken_fsync)
    with pytest.raises(OSError, match="disk went away"):
        save_engine(engine, path)
    assert sorted(os.listdir(tmp_path)) == ["model.oeng"]
    assert path.read_bytes() == b"the previous engine"


def test_unserializable_dtype_fails_before_any_file_is_opened(tmp_path,
                                                              monkeypatch):
    engine = _with_initializers(
        compile_graph(tiny_classifier(), backend="orpheus", threads=1),
        {"complex": np.zeros(2, dtype=np.complex64)})
    opened = []
    monkeypatch.setattr(engine_format, "open",
                        lambda *args, **kwargs: opened.append(args),
                        raising=False)
    with pytest.raises(EngineError, match="unserializable dtype"):
        save_engine(engine, tmp_path / "model.oeng")
    assert opened == []
    assert os.listdir(tmp_path) == []


# -- graph_digest ----------------------------------------------------------------


def _tobytes_digest_formula(graph: Graph) -> str:
    """``graph_digest`` as written when it hashed ``tobytes()`` copies."""
    hasher = hashlib.sha256()

    def feed(*parts):
        for part in parts:
            hasher.update(str(part).encode("utf-8"))
            hasher.update(b"\x00")

    feed("graph", graph.name)
    for info in graph.inputs:
        feed("in", info.name, info.shape, info.dtype.value)
    for info in graph.outputs:
        feed("out", info.name, info.shape, info.dtype.value)
    for node in graph.nodes:
        feed("node", node.op_type, node.name, tuple(node.inputs),
             tuple(node.outputs))
        attrs = node.attrs.as_dict()
        for key in sorted(attrs):
            value = attrs[key]
            if isinstance(value, np.ndarray):
                feed("attr", key, value.shape, value.dtype.str,
                     zlib.adler32(np.ascontiguousarray(value).tobytes()))
            else:
                feed("attr", key, value)
    for name in sorted(graph.initializers):
        array = np.ascontiguousarray(graph.initializers[name])
        feed("init", name, array.shape, array.dtype.str,
             zlib.adler32(array.tobytes()))
    return hasher.hexdigest()


@pytest.mark.parametrize("model", _ZOO_MODELS)
def test_graph_digest_is_unchanged_and_copies_no_weight(model):
    graph = zoo.build(model)
    digest, peak = _traced_peak(graph_digest, graph)
    assert digest == _tobytes_digest_formula(graph)
    assert peak <= _MIB, peak
