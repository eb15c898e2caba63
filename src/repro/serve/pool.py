"""Warm session pool: load a model once, serve it from N worker sessions.

The pool is built around the compiled-engine warm path: the model graph is
built once, compiled once per backend (through an
:class:`~repro.engine.cache.EngineCache` when one is given, so restarts
reuse the ``.oeng`` artifact), and every worker session is created with
:meth:`~repro.runtime.session.InferenceSession.from_engine` *from the same
in-memory engine*. Because an engine's graph is shared by reference, all
workers share one copy of the weights — N sessions cost N small executor
states, not N weight sets — and each warm start skips the whole prepare
pipeline.

Batch buckets: a pool built at ``batch=4`` never makes a lone request run
a batch-4 plan. The compiled engine is re-prepared once per backend at
every width of :func:`batch_buckets` (``1, 2, 4``) with
:func:`~repro.engine.compiler.rebatch` — same node list, same initializer
arrays, a few milliseconds each — and every worker holds one session per
width, so the service pads a batch only up to the smallest bucket that
holds it. ``pool.buckets`` states the widths the pool can run; a graph
that bakes its batch in keeps only ``(batch,)``.

Thread model: one worker owns its sessions (one per bucket) per backend,
and they are only ever run by that worker's thread. Sessions share
*read-only* state (the nodes, initializer arrays, frozen plans);
everything mutable — fallback logs, kernel caches — is per session, which
is what makes the pool safe without locking the hot path. The primary's
fault plan is instantiated per worker (and shared by that worker's
buckets) for the same reason: a
:class:`~repro.runtime.faults.FaultPlan` carries a stateful RNG.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any

import numpy as np

from repro.config import RuntimeConfig
from repro.errors import EngineError, ShapeInferenceError
from repro.runtime.faults import parse_fault_plan


def batch_buckets(batch: int) -> tuple[int, ...]:
    """Batch widths worth a plan: powers of two below ``batch``, then it."""
    return (*(1 << k for k in range((batch - 1).bit_length())), batch)


class _BucketSessions:
    """One worker's sessions for one backend: one prepared plan per width.

    What ``pool.session(backend, worker)`` returns for a real model. It
    runs the session whose width is the feed's leading dimension; a feed
    of no bucket's width goes to the pool-batch session, which raises the
    ``ExecutionError`` a lone session raises for a mis-shaped input. Every
    other attribute is the pool-batch session's, so the worker still reads
    as the one session it used to be (``graph``, plans, config).
    """

    def __init__(self, by_width: dict[int, Any]) -> None:
        self.by_width = by_width
        self._widest = by_width[max(by_width)]

    def __getattr__(self, name: str) -> Any:
        return getattr(self._widest, name)

    def run(self, feeds: Mapping[str, Any],
            deadline_ms: float | None = None) -> dict[str, np.ndarray]:
        shape = np.shape(next(iter(feeds.values()), ()))
        session = self.by_width.get(shape[0] if shape else 0, self._widest)
        return session.run(feeds, deadline_ms=deadline_ms)


class SessionPool:
    """N worker sessions per backend, sharing one loaded copy of the model.

    Args:
        model: zoo model name or an already-built
            :class:`~repro.ir.graph.Graph`.
        backends: ordered backend chain; the service's dispatcher walks it
            when circuit breakers trip.
        workers: sessions per backend (= dispatcher thread count).
        threads: must be 1 (see :class:`~repro.config.RuntimeConfig`).
        batch: the widest batch sessions are prepared at — the dynamic
            batcher coalesces up to this many single-sample requests, and
            a smaller batch runs the smallest of :attr:`buckets` that
            holds it.
        engine_cache: optional :class:`~repro.engine.cache.EngineCache`
            (or its directory, ``str`` or ``os.PathLike``); hits skip
            compilation entirely. Engines are always compiled with the
            pass pipeline on (``optimize=True``).
        fault_spec: fault-spec string
            (:func:`~repro.runtime.faults.parse_fault_plan` mini-language)
            for the primary backend, ``backends[0]``, as
            :class:`~repro.serve.supervisor.WorkerSupervisor` takes it;
            each worker gets its *own* plan instance, seeded
            ``fault_seed + worker_index`` for determinism without sharing.
        session_kwargs: extra per-session run-time knobs
            (``memory_budget_bytes``, ``check_numerics``,
            ``kernel_fallback``) inherited by every worker. A run's
            deadline is not one of them: the service passes it per call.
        session_factory: test seam — ``factory(backend, worker_index)``
            returning a session-like object (``run``) replaces the whole
            build path.

    Like :class:`~repro.serve.supervisor.ProcessWorkerPool` it states
    ``worker_mode``, ``sample_shape``, ``buckets``, :meth:`quarantined`,
    :meth:`supervision` and :meth:`close`, so the service asks its pool
    what it is instead of probing (table in ``docs/serving.md``).
    ``buckets`` is the ascending tuple of batch widths its sessions run,
    ending in ``batch``: :func:`batch_buckets` for a ``session_factory``
    or ``@loopback`` pool (their doubles take any width), and for a real
    model the widths every backend's engine could be re-prepared at.
    """

    worker_mode = "thread"

    def __init__(
        self,
        model: Any,
        backends: tuple[str, ...] = ("orpheus",),
        workers: int = 2,
        threads: int = 1,
        batch: int = 1,
        image_size: int | None = None,
        seed: int = 0,
        engine_cache: Any = None,
        fault_spec: str | None = None,
        fault_seed: int = 0,
        session_kwargs: Mapping[str, Any] | None = None,
        session_factory: Callable[[str, int], Any] | None = None,
    ) -> None:
        RuntimeConfig(threads=threads)  # any other value raises here
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not backends:
            raise ValueError("at least one backend is required")
        self.backends = tuple(backends)
        self.workers = workers
        self.batch = batch
        self.model_name = model if isinstance(model, str) else getattr(
            model, "name", "<graph>")
        self._fault_spec = fault_spec
        self._fault_seed = fault_seed
        self._session_kwargs = dict(session_kwargs or {})
        self.engine_hits: dict[str, bool] = {}
        self.input_name: str = "input"
        self.buckets = batch_buckets(batch)
        self._sessions: dict[str, list[Any]] = {}
        if session_factory is not None:
            for backend in self.backends:
                self._sessions[backend] = [
                    session_factory(backend, index)
                    for index in range(workers)
                ]
        elif model == "@loopback":
            # Diagnostic model (see repro.serve.loopback): serving-layer
            # behaviour without paying for a real graph build.
            from repro.serve.loopback import LoopbackSession

            for backend in self.backends:
                self._sessions[backend] = [
                    LoopbackSession(backend=backend, batch=batch)
                    for _ in range(workers)
                ]
        else:
            self._build(model, batch=batch, image_size=image_size,
                        seed=seed, engine_cache=engine_cache)
        # Per-sample input shape. Every real session carries its graph;
        # a session_factory fake may not, and then the shape is unknown.
        graph = getattr(self.session(self.backends[0], 0), "graph", None)
        shape = tuple(graph.inputs[0].shape) if graph is not None else ()
        self.sample_shape = shape[1:] if len(shape) > 1 else None

    # -- construction ----------------------------------------------------------

    def _build(self, model: Any, batch: int,
               image_size: int | None, seed: int,
               engine_cache: Any) -> None:
        from repro.engine.cache import EngineCache
        from repro.engine.compiler import compile_graph, rebatch
        from repro.models import zoo
        from repro.runtime.session import InferenceSession

        if isinstance(model, str):
            graph = zoo.build(model, batch=batch, image_size=image_size,
                              seed=seed)
        else:
            graph = model
        self.input_name = graph.input_names[0]
        if engine_cache is not None:
            engine_cache = EngineCache.coerce(engine_cache)
        for backend in self.backends:
            if engine_cache is not None:
                engine, hit = engine_cache.load_or_compile(
                    graph, model=self.model_name, backend=backend,
                    batch=batch, image_size=image_size, seed=seed)
            else:
                engine = compile_graph(
                    graph, backend=backend,
                    metadata={"model": self.model_name, "pool": "serve"})
                hit = False
            self.engine_hits[backend] = hit
            engines = {batch: engine}
            for width in self.buckets[:-1]:
                try:
                    engines[width] = rebatch(engine, width)
                except (ShapeInferenceError, EngineError):
                    pass    # the graph bakes its batch in: one bucket fewer
            self.buckets = tuple(w for w in self.buckets if w in engines)
            self._sessions[backend] = []
            for index in range(self.workers):
                kwargs = self._worker_kwargs(backend, index)
                self._sessions[backend].append(_BucketSessions({
                    width: InferenceSession.from_engine(
                        bucket, backend=backend, **kwargs)
                    for width, bucket in engines.items()}))

    def _worker_kwargs(self, backend: str, index: int) -> dict[str, Any]:
        kwargs = dict(self._session_kwargs)
        if self._fault_spec and backend == self.backends[0]:
            kwargs["fault_plan"] = parse_fault_plan(
                self._fault_spec, seed=self._fault_seed + index)
        return kwargs

    # -- access ----------------------------------------------------------------

    def session(self, backend: str, worker: int) -> Any:
        """The session owned by ``worker`` for ``backend``."""
        return self._sessions[backend][worker]

    def quarantined(self, request_ids: Any) -> set[str]:
        """No request can kill a thread worker, so none is quarantined."""
        return set()

    def supervision(self) -> None:
        """Nobody stands over thread workers: no supervisor stats."""
        return None

    def close(self) -> None:
        """Sessions hold nothing but memory: nothing to shut down."""
