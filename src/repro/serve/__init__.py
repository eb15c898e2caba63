"""Fault-contained serving: warm session pools with admission control.

The serving layer turns the runtime's per-run robustness machinery
(kernel fallback chains, deadlines, fault injection) into a long-lived
service that degrades gracefully under load and under backend failure:

* :class:`SessionPool` — load a model once, serve it from N worker
  sessions that share one copy of the weights.
* :class:`AdmissionQueue` — bounded queue with deadline-aware
  backpressure; overload becomes structured :class:`Rejected` replies.
* :class:`CircuitBreaker` — per-backend trip/half-open/recover routing.
* :class:`InferenceService` — dispatcher tying it together: dynamic
  batching, backend-chain rerouting, graceful drain, health/stats.
* :class:`WorkerSupervisor` / :class:`ProcessWorkerPool` — the
  ``worker_mode="process"`` serving path: each pool slot is a separate
  OS process with heartbeats, restart backoff, and poison-request
  quarantine (crash containment).
* :func:`run_load` / :func:`run_chaos_bench` — the open-loop load
  harness and the process-worker chaos acceptance battery.
"""

from repro.serve.breaker import BreakerSnapshot, CircuitBreaker
from repro.serve.chaos import run_chaos_bench
from repro.serve.loadgen import LoadReport, run_load
from repro.serve.pool import SessionPool
from repro.serve.queue import AdmissionQueue
from repro.serve.service import InferenceService, ServiceStats
from repro.serve.supervisor import (
    ProcessWorkerPool,
    SupervisorStats,
    WorkerSupervisor,
)
from repro.serve.types import (
    SHED_REASONS,
    Completed,
    Failed,
    PendingResponse,
    Rejected,
    ServeRequest,
)

__all__ = [
    "SHED_REASONS",
    "AdmissionQueue",
    "BreakerSnapshot",
    "CircuitBreaker",
    "Completed",
    "Failed",
    "InferenceService",
    "LoadReport",
    "PendingResponse",
    "ProcessWorkerPool",
    "Rejected",
    "ServeRequest",
    "ServiceStats",
    "SessionPool",
    "SupervisorStats",
    "WorkerSupervisor",
    "run_chaos_bench",
    "run_load",
]
