"""Exception hierarchy for the Orpheus framework.

Every error raised by the framework derives from :class:`OrpheusError`, so
callers embedding Orpheus in a larger experiment workflow can catch one type.
"""

from __future__ import annotations


class OrpheusError(Exception):
    """Base class for all framework errors."""


class GraphError(OrpheusError):
    """The graph IR is malformed (dangling values, cycles, duplicates...)."""


class ShapeInferenceError(OrpheusError):
    """Operator inputs have shapes the operator cannot accept."""


class AttributeError_(OrpheusError):
    """A node attribute is missing, has the wrong type, or a bad value."""


class UnsupportedOpError(OrpheusError):
    """The graph contains an operator the runtime does not implement."""


class KernelError(OrpheusError):
    """No kernel implementation is applicable to a node."""


class BackendError(OrpheusError):
    """Backend registration or selection failed."""


class OnnxError(OrpheusError):
    """ONNX bytes could not be parsed, or the model uses unsupported features."""


class WireFormatError(OnnxError):
    """Low-level protobuf wire-format corruption."""


class ExecutionError(OrpheusError):
    """A kernel failed while executing a prepared graph."""


class KernelNumericError(ExecutionError):
    """A kernel produced non-finite values (NaN or Inf).

    Raised only when :attr:`repro.config.RuntimeConfig.check_numerics` is
    enabled. Under kernel fallback the executor treats this like any other
    kernel failure and retries the node with the next applicable
    implementation; the error escapes only when the whole chain emits
    non-finite values.
    """


class FallbackExhaustedError(ExecutionError):
    """Every applicable kernel implementation failed on one node.

    The message enumerates each attempted implementation with the reason it
    was rejected (exception, wrong shape/dtype, non-finite output, injected
    fault), so a log line is enough to reconstruct the whole chain.
    """


class DeadlineExceededError(ExecutionError):
    """A run overran its wall-clock budget (the per-call ``deadline_ms``).

    The executor checks a monotonic deadline between nodes. The exception
    carries the partial per-layer timeline so a killed run is still
    diagnosable:

    Attributes:
        partial_timings: the :class:`~repro.runtime.executor.NodeTiming`
            list for every node that completed before expiry.
        completed_nodes / total_nodes: progress through the schedule.
        elapsed_s: wall-clock seconds spent when the watchdog fired.
        deadline_s: the budget that was exceeded, in seconds.
    """

    def __init__(
        self,
        message: str,
        *,
        partial_timings: tuple = (),
        completed_nodes: int = 0,
        total_nodes: int = 0,
        elapsed_s: float = 0.0,
        deadline_s: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.partial_timings = tuple(partial_timings)
        self.completed_nodes = completed_nodes
        self.total_nodes = total_nodes
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s


class MemoryBudgetError(OrpheusError):
    """A run was rejected up front because it cannot fit the memory budget.

    Raised at session-prepare time by admission control
    (``RuntimeConfig.memory_budget_bytes``): the memory plan's peak resident
    activation bytes (``plan.peak_bytes``) exceed the budget. Nothing has
    executed when this is raised.

    Attributes:
        required_bytes: peak resident activation bytes the run would need.
        budget_bytes: the configured budget.
    """

    def __init__(self, message: str, *, required_bytes: int = 0,
                 budget_bytes: int = 0) -> None:
        super().__init__(message)
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


class JournalError(OrpheusError):
    """A run-journal file is unreadable or version-incompatible."""


class EngineError(OrpheusError):
    """A compiled engine file is corrupt, stale, or incompatible.

    Raised by the engine loader (:mod:`repro.engine`) when a file fails the
    format checks (magic, version, size caps, checksum), when its host or
    config fingerprint no longer matches the loading session, or when the
    kernels it froze are no longer registered. ``InferenceSession.from_engine``
    lets it propagate; :class:`~repro.engine.cache.EngineCache` converts it
    into an :class:`EngineFallbackWarning` and a recompile.
    """


class EngineFallbackWarning(UserWarning):
    """A cached engine could not be used; :class:`EngineCache` recompiled it.

    Emitted only by :meth:`repro.engine.cache.EngineCache.load_or_compile`.
    Structured: carries ``source`` (the cache entry's path) and ``reason``
    (the underlying failure message) so campaign logs can report exactly
    which artifact went stale and why.
    """

    def __init__(self, source: str, reason: str) -> None:
        super().__init__(
            f"engine {source}: {reason}; falling back to cold prepare")
        self.source = source
        self.reason = reason


class InjectedFaultError(ExecutionError):
    """A deliberately injected fault fired (``FaultPlan`` mode ``raise``).

    Distinct from organic kernel failures so tests and reports can tell
    "the fault injector did its job" apart from "the kernel is broken".
    """


class WorkerProtocolError(OrpheusError):
    """A supervisor/worker pipe frame is malformed, oversized, or truncated.

    Raised by :mod:`repro.serve.protocol` when a length prefix exceeds the
    frame cap, a header is not valid JSON, or the stream ends mid-frame.
    The supervisor treats it like a worker crash: the worker is killed and
    restarted, and its in-flight request fails structurally.
    """


class WorkerCrashError(OrpheusError):
    """A process worker died (exit, kill, OOM, lost heartbeat) mid-request.

    The request that was in flight is failed *structurally* with this
    error — never silently dropped — while the supervisor restarts the
    worker with backoff. Attributes:

        worker: pool index of the worker that died.
        reason: machine-readable cause (``"exited"``, ``"signaled"``,
            ``"heartbeat-lost"``, ``"request-timeout"``, ``"restarting"``,
            ``"disabled"``, ...).
        exit_code: the process return code when one exists.
    """

    def __init__(self, message: str, *, worker: int = -1,
                 reason: str = "exited",
                 exit_code: int | None = None) -> None:
        super().__init__(message)
        self.worker = worker
        self.reason = reason
        self.exit_code = exit_code


class PoisonRequestError(OrpheusError):
    """A request is quarantined: it already killed too many workers.

    Once a request id has been in flight at
    :data:`repro.serve.supervisor.QUARANTINE_THRESHOLD` (2) worker deaths,
    the supervisor refuses to dispatch it again (cycling the pool forever
    is the alternative). The
    service converts this into a structured ``Rejected`` with reason
    ``"quarantined"``.

    Attributes:
        request_ids: the quarantined request id(s) that were refused.
    """

    def __init__(self, request_ids: tuple[str, ...]) -> None:
        ids = ", ".join(sorted(request_ids))
        super().__init__(
            f"request(s) quarantined after repeatedly killing workers: {ids}")
        self.request_ids = tuple(request_ids)


class FrameworkUnavailableError(OrpheusError):
    """A (simulated) third-party framework cannot run the requested workload.

    Mirrors the paper's evaluation notes: DarkNet only ships the ResNet
    models, and TF-Lite cannot be pinned to a single thread.
    """


class QuantizationError(OrpheusError):
    """Calibration or quantized execution failed."""


class ModelZooError(OrpheusError):
    """Unknown model name or invalid model-construction parameters."""
