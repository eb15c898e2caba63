"""`InferenceSession`: the framework's front door.

    >>> from repro import InferenceSession, models
    >>> graph = models.build("resnet18")
    >>> sess = InferenceSession(graph, backend="orpheus", threads=1)
    >>> logits = sess.run({"input": image})["output"]

A session owns a prepared executor: the graph is validated, optionally
simplified by the pass pipeline, shapes are inferred, kernels are selected,
and the memory plan is fixed. Running is then pure data movement.
"""

from __future__ import annotations

import dataclasses
import os
import time
import warnings
from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.backend import Backend, get_backend
from repro.config import RuntimeConfig
from repro.errors import EngineError, EngineFallbackWarning, MemoryBudgetError
from repro.ir.graph import Graph
from repro.runtime.executor import Executor, RobustnessReport

if TYPE_CHECKING:
    from repro.engine.format import Engine
from repro.runtime.memory_planner import MemoryPlan
from repro.runtime.profiler import ProfileResult, collate

Feed = Mapping[str, np.ndarray]


def lower(graph: Graph, backend: Backend,
          optimize: bool) -> "tuple[Graph, dict[str, int] | None]":
    """The cold lowering: source graph -> the graph an executor is bound to.

    Returns ``(working graph, quantization report or None)`` and leaves
    ``graph`` untouched. A cold session and the engine compiler both call
    this and nothing else, which is what makes a warm start
    indistinguishable from a cold one by construction.
    """
    if optimize:
        # Imported lazily: passes import ops/kernels, which import ir.
        from repro.passes import default_pipeline
        working = default_pipeline().run(graph)  # runs on its own copy
    else:
        working = graph.copy()
    if not backend.quantize:
        return working, None
    from repro.quant.auto import auto_quantize
    working, report = auto_quantize(working)
    return working, report.as_dict()


@dataclasses.dataclass(frozen=True)
class MemoryAdmission:
    """Outcome of the memory-budget admission check at prepare time."""

    budget_bytes: int | None   # None = no budget configured
    required_bytes: int        # peak resident activation bytes of the plan

    @property
    def bounded(self) -> bool:
        return self.budget_bytes is not None


class InferenceSession:
    """A prepared, executable model.

    Thread model: a session is owned by one thread. ``run`` mutates
    per-session state (the fallback ledger, the fault plan's RNG, the
    kernel layout cache), so concurrent ``run`` calls on *one* session are
    not supported — a serving pool gives each worker thread its own
    session instead (see :class:`repro.serve.SessionPool`, whose sessions
    share the weights through a common engine graph). The read-only
    surfaces — :meth:`robustness_report`, the plan/kernel introspection
    properties — are safe to call from other threads while a run is in
    flight.
    """

    def __init__(
        self,
        graph: Graph,
        backend: str | Backend = "orpheus",
        *,
        config: RuntimeConfig | None = None,
        engine: "str | os.PathLike[str] | Engine | None" = None,
        **overrides: object,
    ) -> None:
        """Prepare ``graph`` for execution.

        Args:
            graph: the model; not mutated (the session lowers a copy).
            backend: backend name or instance selecting kernel implementations.
            config: base runtime configuration (defaults to
                ``RuntimeConfig()``).
            engine: best-effort warm start — a compiled engine file (or
                parsed :class:`~repro.engine.format.Engine`) to load
                *instead of* preparing, if and only if it is intact and
                its fingerprint matches this host, this config, and
                ``graph``. Any problem with the engine — corrupt file,
                version/host/config mismatch, different source graph,
                unregistered kernels — emits a structured
                :class:`~repro.errors.EngineFallbackWarning` and falls
                back to a normal cold prepare. Use
                :meth:`from_engine` when a fallback should be an error.
            **overrides: any :class:`~repro.config.RuntimeConfig` field by
                name (``threads=1``, ``optimize=False``,
                ``memory_budget_bytes=...``; documented there), applied
                over ``config``; ``None`` leaves the field alone.

        Raises:
            TypeError: an override names no ``RuntimeConfig`` field.
            MemoryBudgetError: the memory plan's peak resident bytes exceed
                ``memory_budget_bytes``. Raised before anything executes.
                (Admission control runs on the *engine's* plan too — a
                warm start never bypasses the guardrails.)
        """
        if isinstance(backend, str):
            backend = get_backend(backend)
        self.config = (config or RuntimeConfig()).overridden(**overrides)
        self.backend = backend
        self.loaded_engine: "Engine | None" = None
        if engine is not None:
            from repro.engine.fingerprint import graph_digest
            try:
                self._warm_prepare(engine, expected_digest=graph_digest(graph))
            except EngineError as exc:
                warnings.warn(
                    EngineFallbackWarning(_engine_source(engine), str(exc)),
                    stacklevel=2)
        if self.loaded_engine is None:
            self.graph, self.quantization = lower(
                graph, backend, self.config.optimize)
            self._executor = Executor(self.graph, backend, self.config)
        self.memory_admission = self._admit()

    def _warm_prepare(
        self,
        engine: "str | os.PathLike[str] | Engine",
        expected_digest: str | None,
    ) -> None:
        """Load an engine and bind it as this session's executor.

        Requires ``self.config`` / ``self.backend`` to be set. Raises
        :class:`~repro.errors.EngineError` on any corruption, staleness,
        or mismatch — callers decide whether that is fatal
        (:meth:`from_engine`) or a fallback (``engine=`` hint).
        """
        from repro.engine.fingerprint import fingerprint_mismatch
        from repro.engine.format import Engine as EngineType
        from repro.engine.format import load_engine
        from repro.engine.loader import resolve_prepared
        loaded = (engine if isinstance(engine, EngineType)
                  else load_engine(engine))
        reason = fingerprint_mismatch(
            loaded.fingerprint, self.backend, self.config.threads,
            self.config.optimize, source_digest=expected_digest)
        if reason is not None:
            raise EngineError(reason)
        prepared = resolve_prepared(loaded, self.backend)
        self.graph = loaded.graph
        self._executor = Executor(
            loaded.graph, self.backend, self.config, prepared=prepared)
        self.loaded_engine = loaded
        # The engine's graph is already quantized (scales and int8 weights
        # frozen at compile time); surface the stored report so warm and
        # cold sessions are indistinguishable to callers.
        self.quantization = (None if loaded.quantization is None
                             else dict(loaded.quantization))

    @classmethod
    def from_engine(
        cls,
        source: "str | os.PathLike[str] | Engine",
        backend: str | Backend | None = None,
        *,
        config: RuntimeConfig | None = None,
        **overrides: object,
    ) -> "InferenceSession":
        """Strict warm start: a session from a compiled engine, or an error.

        The engine supplies the graph *and* the prepare-time knobs it was
        compiled with (backend, ``threads``, ``optimize``); passing one of
        those only asserts an expectation — a disagreement with the
        fingerprint is an :class:`~repro.errors.EngineError`, never a
        silent re-prepare. Every other ``RuntimeConfig`` field (numerics,
        fallback, fault plans, deadlines, memory budgets) is a run-time
        knob, free to differ, overridden exactly as on ``__init__``; the
        memory-budget admission check runs as it would on a cold prepare.

        Raises:
            EngineError: unreadable/corrupt/stale file, fingerprint
                mismatch, or frozen kernels that no longer resolve.
            MemoryBudgetError: the engine's plan does not fit
                ``memory_budget_bytes``.
        """
        from repro.engine.format import Engine as EngineType
        from repro.engine.format import load_engine
        loaded = (source if isinstance(source, EngineType)
                  else load_engine(source))
        fingerprint = loaded.fingerprint
        try:
            threads = int(fingerprint["threads"])
        except (KeyError, TypeError, ValueError):
            raise EngineError(
                "engine fingerprint has no usable thread count") from None
        if backend is None:
            backend = fingerprint.get("backend")
            if not isinstance(backend, str):
                raise EngineError(
                    "engine fingerprint has no usable backend name")
        if isinstance(backend, str):
            backend = get_backend(backend)
        base = config or RuntimeConfig()
        session = cls.__new__(cls)
        session.config = base.replace(
            threads=threads,
            optimize=bool(fingerprint.get("optimize", base.optimize)),
        ).overridden(**overrides)
        session.backend = backend
        session._warm_prepare(loaded, expected_digest=None)
        session.memory_admission = session._admit()
        return session

    def _admit(self) -> MemoryAdmission:
        """Memory-budget admission control, run once at prepare time.

        An over-budget session is rejected before a single kernel runs.
        """
        budget = self.config.memory_budget_bytes
        plan = self._executor.plan
        if budget is not None and plan.peak_bytes > budget:
            raise MemoryBudgetError(
                f"model needs {plan.peak_bytes} bytes of peak resident "
                f"activations, over the budget of {budget} bytes "
                f"(weights {plan.weight_bytes} bytes, "
                f"arena {plan.arena_bytes} bytes)",
                required_bytes=plan.peak_bytes, budget_bytes=budget)
        return MemoryAdmission(
            budget_bytes=budget, required_bytes=plan.peak_bytes)

    # -- metadata ----------------------------------------------------------------

    @property
    def input_names(self) -> list[str]:
        return self.graph.input_names

    @property
    def output_names(self) -> list[str]:
        return self.graph.output_names

    @property
    def memory_plan(self) -> MemoryPlan:
        return self._executor.plan

    def kernel_plan(self) -> dict[str, str]:
        """Which implementation was selected for every node."""
        return self._executor.kernel_plan()

    def fallback_plan(self) -> dict[str, tuple[str, ...]]:
        """The full ordered kernel chain bound to every node."""
        return self._executor.fallback_plan()

    def robustness_report(self) -> RobustnessReport:
        """Fallbacks taken, numeric violations, and injected faults so far."""
        return self._executor.robustness_report()

    def reset_robustness(self) -> None:
        """Clear the fallback log and re-arm the fault plan (if any)."""
        self._executor.reset_robustness()

    # -- execution ------------------------------------------------------------------

    def run(self, feeds: Feed,
            deadline_ms: float | None = None) -> dict[str, np.ndarray]:
        """Execute once; returns ``{output_name: array}``.

        ``deadline_ms`` overrides the config's per-run wall-clock budget
        for this call; expiry raises
        :class:`~repro.errors.DeadlineExceededError` with the partial
        per-layer timeline attached.
        """
        outputs, _ = self._executor.run(
            self._unwrap(feeds), deadline_ms=deadline_ms)
        return outputs

    def time(
        self, feeds: Feed, repeats: int = 10, warmup: int = 2,
        deadline_ms: float | None = None,
    ) -> list[float]:
        """End-to-end wall times (seconds) for ``repeats`` runs after warmup.

        The one whole-run timing loop; every bench and framework path
        takes its samples from here.
        ``deadline_ms`` bounds each individual run (warmup included);
        expiry raises :class:`~repro.errors.DeadlineExceededError`.

        Raises:
            ValueError: ``repeats < 1`` or ``warmup < 0`` (caught up front
                rather than surfacing later as an empty sample).
        """
        raw = self._warmed(feeds, repeats, warmup, deadline_ms)
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            self._executor.run(raw, deadline_ms=deadline_ms)
            times.append(time.perf_counter() - started)
        return times

    def profile(
        self, feeds: Feed, repeats: int = 5, warmup: int = 1,
        deadline_ms: float | None = None,
    ) -> ProfileResult:
        """Per-layer timing statistics over ``repeats`` instrumented runs.

        Same protocol as :meth:`time`; the clock is the executor's
        per-node timer. ``deadline_ms`` bounds each individual run; expiry
        raises :class:`~repro.errors.DeadlineExceededError`, whose
        ``partial_timings`` carry the layers measured before the watchdog
        fired.

        Raises:
            ValueError: ``repeats < 1`` or ``warmup < 0``.
        """
        raw = self._warmed(feeds, repeats, warmup, deadline_ms)
        runs = []
        for _ in range(repeats):
            _, timings = self._executor.run(
                raw, collect_timings=True, deadline_ms=deadline_ms)
            runs.append(timings)
        return collate(runs)

    # -- internals -----------------------------------------------------------------------

    def _warmed(self, feeds: Feed, repeats: int, warmup: int,
                deadline_ms: float | None) -> dict[str, np.ndarray]:
        """Validate the measurement protocol, then run the warm-up runs."""
        _validate_protocol(repeats, warmup)
        raw = self._unwrap(feeds)
        for _ in range(warmup):
            self._executor.run(raw, deadline_ms=deadline_ms)
        return raw

    @staticmethod
    def _unwrap(feeds: Feed) -> dict[str, np.ndarray]:
        return {name: np.asarray(value) for name, value in feeds.items()}


def _engine_source(engine: object) -> str:
    """Human-readable origin of an ``engine=`` argument, for warnings."""
    if isinstance(engine, (str, os.PathLike)):
        return os.fspath(engine)
    return f"<{type(engine).__name__}>"


def _validate_protocol(repeats: int, warmup: int) -> None:
    """Reject measurement protocols that could only fail later, opaquely."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
