"""Graph executor: runs a prepared schedule node by node.

Fault tolerance: each schedule entry carries the backend's *full* ordered
candidate chain, not just the winning kernel. When an implementation fails
mid-run — raises, returns the wrong shape/dtype, or (under
``check_numerics``) emits NaN/Inf — the executor retries the node with the
next applicable implementation, records a :class:`FallbackEvent`, and only
raises :class:`~repro.errors.FallbackExhaustedError` once the whole chain
is spent. :meth:`Executor.robustness_report` summarises what happened.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Mapping, Sequence

import numpy as np

from repro.backends.backend import Backend
from repro.config import RuntimeConfig
from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    FallbackExhaustedError,
    InjectedFaultError,
    KernelNumericError,
)
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.shape_inference import infer_shapes
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import KernelImpl
from repro.ops import validate_graph_nodes
from repro.runtime import faults as faults_mod
from repro.runtime.faults import InjectedFault
from repro.runtime.memory_planner import MemoryPlan, plan_memory


@dataclasses.dataclass(frozen=True)
class PreparedNode:
    """One schedule entry: a node bound to its kernel candidate chain.

    ``impl`` is the primary (winning) implementation; ``candidates`` is the
    full ordered chain starting with ``impl``, used for fallback.
    """

    index: int
    node: Node
    impl: KernelImpl
    candidates: tuple[KernelImpl, ...] = ()

    def __post_init__(self) -> None:
        if not self.candidates:
            object.__setattr__(self, "candidates", (self.impl,))


@dataclasses.dataclass(frozen=True)
class PreparedGraph:
    """Everything ``Executor.__init__`` computes, precomputed elsewhere.

    The warm-start payload: an engine loader (see :mod:`repro.engine`)
    rebuilds this from a compiled engine file and hands it to the
    executor, which then skips validation, shape inference, scheduling
    and kernel selection entirely. The loader is
    responsible for having cross-checked the pieces against the graph —
    the executor trusts a ``PreparedGraph`` blindly; that trust is the
    speedup.
    """

    value_types: dict[str, tuple]
    schedule_nodes: list[Node]
    schedule: list["PreparedNode"]


@dataclasses.dataclass
class NodeTiming:
    """Wall-clock seconds spent in one node during one run."""

    node: Node
    impl: KernelImpl
    seconds: float


@dataclasses.dataclass(frozen=True)
class FallbackEvent:
    """One failed kernel attempt and what the executor did about it."""

    node_name: str
    op_type: str
    failed_impl: str
    kind: str               # "raise" | "injected" | "shape" | "dtype" | "count" | "numeric"
    message: str
    attempt: int            # index in the candidate chain
    recovered_impl: str | None   # implementation that saved the node, or None

    def __str__(self) -> str:
        outcome = (f"recovered with {self.recovered_impl}"
                   if self.recovered_impl else "chain exhausted")
        return (f"{self.node_name} ({self.op_type}): {self.failed_impl} "
                f"[{self.kind}] {self.message} -> {outcome}")


@dataclasses.dataclass(frozen=True)
class RobustnessReport:
    """What the fault-tolerance machinery did across the executor's runs."""

    runs: int
    fallback_events: tuple[FallbackEvent, ...]
    injected_faults: tuple[InjectedFault, ...]

    @property
    def recovered(self) -> tuple[FallbackEvent, ...]:
        return tuple(e for e in self.fallback_events if e.recovered_impl)

    @property
    def exhausted(self) -> tuple[FallbackEvent, ...]:
        return tuple(e for e in self.fallback_events if not e.recovered_impl)

    @property
    def numeric_violations(self) -> int:
        return sum(1 for e in self.fallback_events if e.kind == "numeric")

    def fallbacks_by_node(self) -> dict[str, int]:
        """Map node name -> number of failed attempts on that node."""
        counts: dict[str, int] = {}
        for event in self.fallback_events:
            counts[event.node_name] = counts.get(event.node_name, 0) + 1
        return counts

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.fallback_events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    @property
    def clean(self) -> bool:
        """True when nothing went wrong (and nothing was injected)."""
        return not self.fallback_events and not self.injected_faults

    def summary(self) -> str:
        lines = [f"robustness: {self.runs} run(s), "
                 f"{len(self.fallback_events)} fallback event(s), "
                 f"{len(self.injected_faults)} injected fault(s)"]
        for kind, count in sorted(self.counts_by_kind().items()):
            lines.append(f"  {kind:10s} x{count}")
        for event in self.fallback_events:
            lines.append(f"  {event}")
        return "\n".join(lines)


class _AttemptFailure(Exception):
    """Internal: one kernel attempt failed; carries the reason for the log."""

    def __init__(self, kind: str, message: str,
                 cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.cause = cause


class Executor:
    """Binds a graph to a backend and executes it.

    Preparation (done once, in ``__init__``) validates the graph, infers all
    value types, fixes the schedule, selects a kernel chain per node, and
    builds the memory plan. ``run`` then only moves data — retrying a node
    down its chain when an implementation fails.
    """

    def __init__(self, graph: Graph, backend: Backend, config: RuntimeConfig,
                 prepared: PreparedGraph | None = None) -> None:
        self.graph = graph
        self.backend = backend
        self.config = config
        if prepared is not None:
            # Warm start from a compiled engine: every prepare product is
            # already in hand, so all the per-node analysis below is skipped.
            self.value_types = prepared.value_types
            self.schedule_nodes = prepared.schedule_nodes
            self.schedule: list[PreparedNode] = list(prepared.schedule)
        else:
            graph.validate()
            validate_graph_nodes(graph.nodes)
            self.value_types = infer_shapes(graph)
            self.schedule_nodes = graph.toposort()
            self.schedule = []
            for index, node in enumerate(self.schedule_nodes):
                shapes = [
                    self.value_types[name][0] if name else ()
                    for name in node.inputs
                ]
                chain = tuple(backend.candidates(node, shapes))
                self.schedule.append(PreparedNode(
                    index=index, node=node, impl=chain[0], candidates=chain))
        # Derived, never stored: a pure function of what both branches hold.
        self.plan: MemoryPlan = plan_memory(
            graph, self.value_types, self.schedule_nodes)
        self.context = ExecutionContext(gemm=backend.gemm_fn)
        self.fallback_events: list[FallbackEvent] = []  # guarded-by: _report_lock
        self._runs_completed = 0                        # guarded-by: _report_lock
        # Guards the robustness ledger only. An executor is single-threaded
        # on its hot path (one session, one owning thread), but health and
        # stats surfaces read robustness_report() from *other* threads
        # while runs are in flight; the lock makes those reads a consistent
        # snapshot rather than a torn one.
        self._report_lock = threading.Lock()
        # Shape/dtype checks per attempt: explicit debugging flag, or a
        # fault plan is installed (corrupt-shape faults must be caught for
        # the fallback chain to engage).
        self._validate_attempts = bool(
            config.validate_kernels or config.fault_plan is not None)

    # -- introspection ---------------------------------------------------------

    def kernel_plan(self) -> dict[str, str]:
        """Map node name -> chosen (primary) implementation name."""
        return {entry.node.name: entry.impl.name for entry in self.schedule}

    def fallback_plan(self) -> dict[str, tuple[str, ...]]:
        """Map node name -> the full ordered implementation chain."""
        return {
            entry.node.name: tuple(impl.name for impl in entry.candidates)
            for entry in self.schedule
        }

    def robustness_report(self) -> RobustnessReport:
        """Fallbacks taken, numeric violations, and injected faults so far.

        Safe to call from a thread other than the one running the
        executor (health endpoints poll this mid-run); the returned
        report is an immutable snapshot.
        """
        plan = self.config.fault_plan
        with self._report_lock:
            return RobustnessReport(
                runs=self._runs_completed,
                fallback_events=tuple(self.fallback_events),
                injected_faults=tuple(plan.events) if plan is not None else (),
            )

    def reset_robustness(self) -> None:
        """Clear the fallback log and re-arm the fault plan (if any)."""
        with self._report_lock:
            self.fallback_events = []
            self._runs_completed = 0
            if self.config.fault_plan is not None:
                self.config.fault_plan.reset()

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        feeds: Mapping[str, np.ndarray],
        collect_timings: bool = False,
        keep_values: bool = False,
        deadline_ms: float | None = None,
    ) -> tuple[dict[str, np.ndarray], list[NodeTiming]]:
        """Execute the graph on ``feeds``.

        Returns the requested graph outputs and (optionally) per-node wall
        times. Intermediate values are dropped at their last use per the
        memory plan, bounding the resident set — unless ``keep_values`` is
        set (calibration/debugging), in which case every intermediate is
        retained and returned alongside the outputs.

        ``deadline_ms`` bounds the run in wall-clock time: a monotonic
        deadline is checked between nodes, and expiry raises
        :class:`~repro.errors.DeadlineExceededError` carrying the partial
        per-layer timeline. Kernels are not preempted mid-call, so the
        check is soft: expiry is detected at the next node boundary.

        Raises:
            ValueError: ``deadline_ms`` is not positive.
        """
        deadline = None
        if deadline_ms is not None:
            if deadline_ms <= 0:
                raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
            started_run = time.monotonic()
            deadline = started_run + deadline_ms / 1e3
        values = self._bind_inputs(feeds)
        timings: list[NodeTiming] = []
        # A deadline always collects timings: the partial timeline is
        # what makes an expired run diagnosable.
        collect = collect_timings or deadline is not None
        release = {} if keep_values else self.plan.release_after
        for position, entry in enumerate(self.schedule):
            node = entry.node
            if deadline is not None:
                now = time.monotonic()
                if now > deadline:
                    raise DeadlineExceededError(
                        f"deadline of {deadline_ms:g} ms exceeded after "
                        f"{(now - started_run) * 1e3:.2f} ms, before node "
                        f"{node.name!r} ({position}/{len(self.schedule)} "
                        f"nodes completed)",
                        partial_timings=tuple(timings),
                        completed_nodes=position,
                        total_nodes=len(self.schedule),
                        elapsed_s=now - started_run,
                        deadline_s=deadline_ms / 1e3)
            inputs = [values[name] if name else np.empty(0) for name in node.inputs]
            started = time.perf_counter() if collect else 0.0
            outputs, chosen = self._run_node(entry, inputs)
            if collect:
                seconds = time.perf_counter() - started
                timings.append(NodeTiming(
                    node=node, impl=chosen, seconds=seconds))
            for name, array in zip(node.outputs, outputs):
                values[name] = array
            for dead in release.get(entry.index, ()):
                values.pop(dead, None)
        with self._report_lock:
            self._runs_completed += 1
        if keep_values:
            return values, timings
        results = {name: values[name] for name in self.graph.output_names}
        return results, timings

    # -- internals -------------------------------------------------------------------

    def _run_node(
        self, entry: PreparedNode, inputs: list[np.ndarray]
    ) -> tuple[list[np.ndarray], KernelImpl]:
        """Try the node's candidate chain; return (outputs, chosen impl).

        Raises:
            FallbackExhaustedError: every candidate failed (the message
                enumerates each attempt's failure).
        """
        node = entry.node
        chain = (entry.candidates if self.config.kernel_fallback
                 else entry.candidates[:1])
        failures: list[tuple[KernelImpl, _AttemptFailure]] = []
        for attempt, impl in enumerate(chain):
            try:
                outputs = self._attempt(node, impl, attempt, inputs)
            except _AttemptFailure as failure:
                failures.append((impl, failure))
                continue
            with self._report_lock:
                for index, (failed, failure) in enumerate(failures):
                    self.fallback_events.append(FallbackEvent(
                        node_name=node.name, op_type=node.op_type,
                        failed_impl=failed.name, kind=failure.kind,
                        message=failure.message, attempt=index,
                        recovered_impl=impl.name))
            return outputs, impl
        with self._report_lock:
            for index, (failed, failure) in enumerate(failures):
                self.fallback_events.append(FallbackEvent(
                    node_name=node.name, op_type=node.op_type,
                    failed_impl=failed.name, kind=failure.kind,
                    message=failure.message, attempt=index,
                    recovered_impl=None))
        detail = "; ".join(
            f"{impl.key}: [{failure.kind}] {failure.message}"
            for impl, failure in failures)
        last_cause = failures[-1][1].cause if failures else None
        raise FallbackExhaustedError(
            f"all {len(chain)} kernel(s) failed on node {node.name!r} "
            f"({node.op_type}): {detail}"
        ) from last_cause

    def _attempt(
        self, node: Node, impl: KernelImpl, attempt: int,
        inputs: Sequence[np.ndarray],
    ) -> list[np.ndarray]:
        """One kernel invocation, fault injection and validation included."""
        plan = self.config.fault_plan
        fault = plan.draw(node, impl.name, attempt) if plan is not None else None
        if fault is not None and fault.mode == "raise":
            raise _AttemptFailure(
                "injected",
                f"injected fault: kernel {impl.key} on node {node.name!r}",
                InjectedFaultError(
                    f"injected fault: kernel {impl.key} on node {node.name!r}"))
        if fault is not None and fault.mode == "slowdown":
            time.sleep(fault.slowdown_s)
        try:
            outputs = impl.fn(inputs, node, self.context)
        except Exception as exc:
            raise _AttemptFailure(
                "raise", f"kernel {impl.key} failed on node {node.name!r}: {exc}",
                exc) from exc
        if fault is not None and fault.mode == "nan":
            outputs = faults_mod.poison_nan(outputs)
        if fault is not None and fault.mode == "corrupt-shape":
            outputs = faults_mod.corrupt_shape(outputs)
        if len(outputs) != len(node.outputs):
            raise _AttemptFailure(
                "count",
                f"kernel {impl.key} returned {len(outputs)} outputs "
                f"for node {node.name!r} declaring {len(node.outputs)}")
        for name, array in zip(node.outputs, outputs):
            if self._validate_attempts:
                self._validate_output(node, impl, name, array)
            if self.config.check_numerics:
                self._check_numerics(node, impl, name, array)
        return list(outputs)

    def _bind_inputs(self, feeds: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        values: dict[str, np.ndarray] = dict(self.graph.initializers)
        for info in self.graph.inputs:
            if info.name not in feeds:
                raise ExecutionError(f"missing graph input {info.name!r}")
            array = np.ascontiguousarray(feeds[info.name])
            expected = info.shape
            if len(expected) != array.ndim or any(
                dim != -1 and dim != actual
                for dim, actual in zip(expected, array.shape)
            ):
                raise ExecutionError(
                    f"input {info.name!r}: expected shape {expected}, "
                    f"got {array.shape}")
            if array.dtype != info.dtype.np:
                array = array.astype(info.dtype.np)
            values[info.name] = array
        extra = set(feeds) - set(self.graph.input_names)
        if extra:
            raise ExecutionError(f"unknown graph inputs fed: {sorted(extra)}")
        return values

    def _validate_output(
        self, node: Node, impl: KernelImpl, name: str, array: np.ndarray
    ) -> None:
        expected_shape, expected_dtype = self.value_types[name]
        concrete = tuple(
            actual if dim == -1 else dim
            for dim, actual in zip(expected_shape, array.shape)
        )
        if len(expected_shape) != array.ndim or concrete != array.shape:
            raise _AttemptFailure(
                "shape",
                f"kernel {impl.key}: output {name!r} has shape {array.shape}, "
                f"inference said {expected_shape}")
        if expected_dtype.np != array.dtype:
            raise _AttemptFailure(
                "dtype",
                f"kernel {impl.key}: output {name!r} has dtype {array.dtype}, "
                f"inference said {expected_dtype.value}")

    def _check_numerics(
        self, node: Node, impl: KernelImpl, name: str, array: np.ndarray
    ) -> None:
        if array.dtype.kind != "f" or not array.size:
            return
        finite = np.isfinite(array)
        if not finite.all():
            bad = int(array.size - int(finite.sum()))
            raise _AttemptFailure(
                "numeric",
                f"kernel {impl.key}: output {name!r} has {bad} non-finite "
                f"value(s) of {array.size}",
                KernelNumericError(
                    f"kernel {impl.key}: output {name!r} on node "
                    f"{node.name!r} has {bad} non-finite value(s)"))
