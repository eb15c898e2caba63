"""Host, config, and model fingerprints for compiled engines.

A compiled engine freezes decisions (kernel choices, schedule, tuned
overrides) that are only valid on the host/config pair that made
them. The fingerprint captures exactly that pair, plus a digest of the
source model, so a load can answer three questions cheaply:

* was this file built by a compatible runtime on a compatible machine?
* was it built for the backend/optimize the session is asking for?
* was it built from *this* model (same structure, same weights)?

Any "no" makes the engine *stale* — never an excuse to crash. Callers turn
staleness into :class:`~repro.errors.EngineError` (``from_engine``, the
strict load) or a structured fallback to a cold compile (``EngineCache``).
"""

from __future__ import annotations

import hashlib
import platform
import sys
import zlib

import numpy as np

from repro import __version__
from repro.backends.backend import Backend
from repro.config import RuntimeConfig
from repro.ir.graph import Graph

#: Host keys whose mismatch marks an engine stale. ``python`` tracks only
#: major.minor — a patch release does not change kernel selection.
HOST_KEYS = ("repro", "python", "numpy", "machine")


def host_fingerprint() -> dict[str, str]:
    """The current process's host identity, as stored in engine files."""
    return {
        "repro": __version__,
        "python": "{}.{}".format(*sys.version_info[:2]),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def config_fingerprint(backend: Backend,
                       config: RuntimeConfig) -> dict[str, object]:
    """The prepare-time knobs an engine's frozen plans depend on."""
    return {
        "backend": backend.name,
        "gemm": backend.gemm,
        "threads": config.threads,     # always 1; another value is stale
        "optimize": config.optimize,
    }


def graph_digest(graph: Graph) -> str:
    """Cheap-but-honest digest of a model: structure plus weight checksums.

    Structure (ops, value names, attributes, I/O shapes) goes through
    sha256; weight payloads are folded in as adler32 checksums, which run
    at memcpy-like speed — hashing ResNet-50's ~100 MB of weights costs
    milliseconds, not the seconds a cryptographic hash of the payload
    would. The digest is *identity*, not *integrity*: file integrity is
    the engine container's CRC. Two models that differ only in weight
    values still digest differently (the adler32 folds in every byte).
    """
    hasher = hashlib.sha256()

    def feed(*parts: object) -> None:
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
                     zlib.adler32(np.ascontiguousarray(value)))
            else:
                feed("attr", key, value)
    for name in sorted(graph.initializers):
        # adler32 reads the contiguous array's own buffer: no copy of the
        # weights. ``array.shape`` is the contiguous one (``(1,)`` for a 0-d
        # initializer), kept so that existing digests do not change.
        array = np.ascontiguousarray(graph.initializers[name])
        feed("init", name, array.shape, array.dtype.str, zlib.adler32(array))
    return hasher.hexdigest()


def make_fingerprint(graph: Graph, backend: Backend,
                     config: RuntimeConfig) -> dict[str, object]:
    """The full fingerprint block stored in an engine header."""
    fingerprint: dict[str, object] = dict(host_fingerprint())
    fingerprint.update(config_fingerprint(backend, config))
    fingerprint["source_digest"] = graph_digest(graph)
    return fingerprint


def fingerprint_mismatch(
    fingerprint: dict[str, object],
    backend: Backend,
    config: RuntimeConfig,
    source_digest: str | None = None,
) -> str | None:
    """Why ``fingerprint`` does not match the current host/request, or None.

    Returns a one-line human-readable reason naming the first mismatching
    key — the message that ends up in the structured fallback warning.
    """
    host = host_fingerprint()
    for key in HOST_KEYS:
        if fingerprint.get(key) != host[key]:
            return (f"host mismatch: {key} was {fingerprint.get(key)!r} at "
                    f"compile time, is {host[key]!r} now")
    wanted = config_fingerprint(backend, config)
    for key, value in wanted.items():
        if fingerprint.get(key) != value:
            return (f"config mismatch: {key} was {fingerprint.get(key)!r} at "
                    f"compile time, session asks for {value!r}")
    if source_digest is not None and fingerprint.get("source_digest") != source_digest:
        return ("model mismatch: engine was compiled from a different graph "
                "(source digest differs)")
    return None
