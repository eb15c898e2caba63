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
from repro.engine.cache import AutotuneCache
from repro.engine.fingerprint import make_fingerprint
from repro.engine.format import Engine, save_engine
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
    autotune_cache: AutotuneCache | None = None,
    metadata: Mapping[str, Any] | None = None,
) -> Engine:
    """Compile ``graph`` into an :class:`Engine`.

    Args:
        graph: the source model; not mutated (a copy is lowered).
        backend / threads / optimize: the prepare-time knobs
            :class:`~repro.runtime.session.InferenceSession` takes — the
            engine's fingerprint records them, and loads demand a match.
        tune: ``True`` races every registered implementation for
            :data:`DEFAULT_TUNE_OPS`; a mapping races exactly those
            candidates; ``False`` keeps the backend's static policy.
        tune_repeats: timed runs per candidate during tuning.
        autotune_cache: persistent cache consulted/updated while tuning.
        metadata: free-form strings stored in the engine (model name,
            compile flags) for ``repro engine-info``.

    Returns:
        The compiled engine, ready for :func:`repro.engine.save_engine`.
    """
    config = RuntimeConfig().overridden(threads=threads, optimize=optimize)
    if isinstance(backend, str):
        backend = get_backend(backend)

    # Fingerprint the *source* graph: that is what a later
    # `InferenceSession(graph, engine=...)` has in hand to compare against.
    fingerprint = make_fingerprint(
        graph, backend, config.threads, config.optimize)

    # A quantize=True backend calibrates and quantizes here, *at compile
    # time*, freezing scales, zero points and int8 weights into the
    # engine: warm starts skip the whole calibration cost.
    working, quantization = lower(graph, backend, config.optimize)

    tuned: dict[str, str] = {}
    if tune:
        candidates = (tuning_candidates(backend) if tune is True
                      else {op: tuple(names) for op, names in tune.items()})
        tuned = autotune(
            working, candidates, threads=config.threads, repeats=tune_repeats,
            registry=backend.registry, cache=autotune_cache)
        if tuned:
            backend = backend.with_overrides(tuned)

    executor = Executor(working, backend, config)
    return Engine(
        graph=working,
        schedule=tuple(node.name for node in executor.schedule_nodes),
        kernel_plan=executor.kernel_plan(),
        fallback_plan=executor.fallback_plan(),
        value_types=dict(executor.value_types),
        memory_plan=executor.plan,
        fingerprint=fingerprint,
        tuned=tuned,
        metadata=dict(metadata or {}),
        quantization=quantization,
    )


def compile_to_file(
    graph: Graph,
    path: str | os.PathLike[str],
    **kwargs: Any,
) -> Engine:
    """:func:`compile_graph` then :func:`~repro.engine.format.save_engine`."""
    engine = compile_graph(graph, **kwargs)
    save_engine(engine, path)
    return engine
