"""Ahead-of-time compilation: graph + backend + config -> :class:`Engine`.

``compile_graph`` runs exactly the cold prepare an
:class:`~repro.runtime.session.InferenceSession` would — optionally
autotunes — and freezes the result. That "exactly" is load-bearing: the
differential test suite asserts a warm-started session is
indistinguishable from a cold one, and it holds by construction because
both call the same :func:`~repro.runtime.session.lower` (pass pipeline,
auto-quantization) and the same :class:`~repro.runtime.executor.Executor`
preparation (shape inference, scheduling, memory planning, kernel chain
selection).
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence
from typing import Any

from repro.backends.backend import Backend, get_backend
from repro.config import RuntimeConfig
from repro.engine.fingerprint import make_fingerprint
from repro.engine.format import Engine, save_engine
from repro.errors import EngineError
from repro.ir.graph import Graph
from repro.runtime.autotune import autotune
from repro.runtime.executor import Executor
from repro.runtime.session import lower

#: Op types autotuned by default when tuning is requested without an
#: explicit candidate map. Conv dominates edge CNN inference time;
#: QLinearConv is its counterpart on quantized graphs (a no-op entry on
#: float graphs — tuning only races ops the graph actually contains).
DEFAULT_TUNE_OPS = ("Conv", "QLinearConv")


def tuning_candidates(
    backend: Backend, ops: Sequence[str] = DEFAULT_TUNE_OPS,
) -> dict[str, tuple[str, ...]]:
    """Every registered implementation per op, as an autotune candidate map.

    Experimental kernels are included only when the backend itself opts
    in — racing them is how an experimental kernel earns a slot, but a
    conservative backend should not silently deploy one.
    """
    table: dict[str, tuple[str, ...]] = {}
    for op_type in ops:
        names = tuple(
            impl.name for impl in backend.registry.implementations(op_type)
            if backend.include_experimental or not impl.experimental)
        if names:
            table[op_type] = names
    return table


def compile_graph(
    graph: Graph,
    backend: str | Backend = "orpheus",
    threads: int | None = None,
    optimize: bool | None = None,
    tune: bool | Mapping[str, Sequence[str]] = False,
    tune_repeats: int = 2,
    metadata: Mapping[str, Any] | None = None,
) -> Engine:
    """Compile ``graph`` into an :class:`Engine`.

    Args:
        graph: the source model; not mutated (a copy is lowered).
        backend / optimize: the prepare-time knobs
            :class:`~repro.runtime.session.InferenceSession` takes — the
            engine's fingerprint records them, and loads demand a match.
        threads: must be 1 (see :class:`~repro.config.RuntimeConfig`).
        tune: ``True`` races every registered implementation for
            :data:`DEFAULT_TUNE_OPS`; a mapping races exactly those
            candidates; ``False`` keeps the backend's static policy.
        tune_repeats: timed runs per candidate during tuning.
        metadata: free-form strings stored in the engine (model name,
            compile flags) for ``repro engine-info``.

    Returns:
        The compiled engine, ready for :func:`repro.engine.save_engine`.
    """
    config = RuntimeConfig().overridden(threads=threads, optimize=optimize)
    if isinstance(backend, str):
        backend = get_backend(backend)

    # Fingerprint the *source* graph: that is what a later
    # `EngineCache.load_or_compile(graph, ...)` has in hand to compare
    # against.
    fingerprint = make_fingerprint(graph, backend, config)

    # A quantize=True backend calibrates and quantizes here, *at compile
    # time*, freezing scales, zero points and int8 weights into the
    # engine: warm starts skip the whole calibration cost.
    working, quantization = lower(graph, backend, config.optimize)

    tuned: dict[str, str] = {}
    if tune:
        candidates = (tuning_candidates(backend) if tune is True
                      else {op: tuple(names) for op, names in tune.items()})
        tuned = autotune(working, candidates, repeats=tune_repeats,
                         registry=backend.registry)
        if tuned:
            backend = backend.with_overrides(tuned)

    return _freeze(working, backend, config, fingerprint=fingerprint,
                   tuned=tuned, metadata=dict(metadata or {}),
                   quantization=quantization)


def _freeze(graph: Graph, backend: Backend, config: RuntimeConfig,
            **carried: Any) -> Engine:
    """The one cold ``Executor`` preparation of ``graph``, frozen."""
    executor = Executor(graph, backend, config)
    return Engine(
        graph=graph,
        schedule=tuple(node.name for node in executor.schedule_nodes),
        kernel_plan=executor.kernel_plan(),
        fallback_plan=executor.fallback_plan(),
        value_types=dict(executor.value_types),
        **carried,
    )


def rebatch(engine: Engine, batch: int) -> Engine:
    """``engine`` re-prepared at another batch size, over the same weights.

    The engine's already-lowered graph, with every input's leading
    dimension replaced by ``batch``, goes through the one cold
    :class:`~repro.runtime.executor.Executor` preparation (validation,
    shape inference, toposort, memory plan, kernel chains, with
    ``engine.tuned`` re-applied) — everything that depends on shapes is
    re-derived, so the result equals a cold :func:`compile_graph` of the
    model built at ``batch``. Nothing that does not depend on shapes is
    redone or copied: ``graph.nodes`` and ``graph.initializers`` are the
    source engine's own list and dict, no pass or quantization runs (int8
    scales calibrated at the source batch serve every batch), and the
    fingerprint, tuned choices, metadata and quantization report are
    carried over. Milliseconds where a compile costs tens to hundreds,
    which is why a serving pool derives its batch buckets at build time
    instead of storing them in the engine file.

    Raises:
        ShapeInferenceError: the graph cannot be shaped at ``batch`` (a
            ``Reshape`` to a constant that bakes the source batch in).
        EngineError: it can, but some graph output's leading dimension is
            not ``batch`` — rows would not be requests.
    """
    source = engine.graph
    graph = Graph(
        name=source.name,
        inputs=[info.with_shape((batch, *info.shape[1:]))
                for info in source.inputs],
        outputs=source.outputs)     # re-typed below, once shapes are known
    graph.nodes = source.nodes                  # shared, not copied
    graph.initializers = source.initializers    # shared, not copied
    fingerprint = engine.fingerprint
    backend = get_backend(fingerprint["backend"]).with_overrides(engine.tuned)
    config = RuntimeConfig(optimize=fingerprint["optimize"])
    rebatched = _freeze(
        graph, backend, config, fingerprint=fingerprint, tuned=engine.tuned,
        metadata=engine.metadata, quantization=engine.quantization)
    graph.outputs = [info.with_shape(rebatched.value_types[info.name][0])
                     for info in source.outputs]
    for info in graph.outputs:
        if info.shape[:1] != (batch,):
            raise EngineError(
                f"cannot rebatch to {batch}: output {info.name!r} has shape "
                f"{info.shape}, its leading dimension is not the batch")
    return rebatched


def compile_to_file(
    graph: Graph,
    path: str | os.PathLike[str],
    **kwargs: Any,
) -> Engine:
    """:func:`compile_graph` then :func:`~repro.engine.format.save_engine`."""
    engine = compile_graph(graph, **kwargs)
    save_engine(engine, path)
    return engine
