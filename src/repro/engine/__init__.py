"""Compiled execution engines: freeze prepare, reload in milliseconds.

Every :class:`~repro.runtime.session.InferenceSession` normally redoes
graph simplification, shape inference, scheduling, memory planning, and
kernel selection from scratch. This package serializes all of that but
the memory plan, which is re-derived at load in under a millisecond — the
TensorRT/ONNX-Runtime "engine" idiom — into a versioned, checksummed,
fingerprinted file::

    from repro import models
    from repro.engine import compile_to_file
    from repro.runtime.session import InferenceSession

    graph = models.build("resnet18")
    compile_to_file(graph, "resnet18.oeng", backend="orpheus")

    sess = InferenceSession.from_engine("resnet18.oeng")

Two warm starts, one of each kind. ``from_engine`` is strict: a corrupt,
truncated, stale, or mismatched file raises
:class:`~repro.errors.EngineError`. :class:`EngineCache` is best-effort:
such a file produces a structured
:class:`~repro.errors.EngineFallbackWarning`, a cold compile, and a
re-frozen cache entry.
"""

from repro.engine.cache import EngineCache
from repro.engine.compiler import (
    DEFAULT_TUNE_OPS,
    compile_graph,
    compile_to_file,
    rebatch,
    tuning_candidates,
)
from repro.engine.fingerprint import (
    fingerprint_mismatch,
    graph_digest,
    host_fingerprint,
    make_fingerprint,
)
from repro.engine.format import (
    ENGINE_FORMAT_VERSION,
    MAGIC,
    Engine,
    load_engine,
    parse_engine,
    save_engine,
    serialize_engine,
)
from repro.engine.loader import resolve_prepared

__all__ = [
    "EngineCache",
    "DEFAULT_TUNE_OPS",
    "ENGINE_FORMAT_VERSION",
    "Engine",
    "MAGIC",
    "compile_graph",
    "compile_to_file",
    "fingerprint_mismatch",
    "graph_digest",
    "host_fingerprint",
    "load_engine",
    "make_fingerprint",
    "parse_engine",
    "rebatch",
    "resolve_prepared",
    "save_engine",
    "serialize_engine",
    "tuning_candidates",
]
