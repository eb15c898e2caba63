"""`InferenceService`: the fault-contained serving loop.

Ties the pieces together: an :class:`~repro.serve.pool.SessionPool` of
warm sessions, an :class:`~repro.serve.queue.AdmissionQueue` in front, and
``workers`` dispatcher threads that coalesce single-sample requests into
dynamic batches, zero-pad each batch only up to the smallest of the
pool's batch ``buckets`` that holds it (a lone request runs a batch-1
plan, never the pool's full width), route it through the backend chain
under per-backend circuit breakers, and resolve every admitted request to
exactly one structured outcome.

The design goal is *graceful degradation*: saturation sheds load with
``retry_after`` hints instead of growing latency without bound; a backend
that keeps failing is tripped open and traffic reroutes to the next
backend in the chain while half-open probes test recovery; shutdown
drains in-flight work and rejects the rest — nothing is ever silently
dropped.

    >>> service = InferenceService("wrn-40-2", image_size=32, workers=2)
    >>> with service:
    ...     pending = service.submit(sample, deadline_ms=200)
    ...     outcome = pending.result(timeout=1.0)   # Completed | Rejected | Failed
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any

import numpy as np

from repro.errors import OrpheusError, PoisonRequestError
from repro.serve.breaker import BreakerSnapshot, CircuitBreaker
from repro.serve.pool import SessionPool
from repro.serve.queue import AdmissionQueue
from repro.serve.types import (
    Completed,
    Failed,
    PendingResponse,
    Rejected,
    ServeRequest,
)

#: How long a batch that already holds two or more requests waits to fill:
#: the latency budget of dynamic batching. A lone request never waits.
BATCH_WINDOW_MS = 2.0


@dataclasses.dataclass(frozen=True)
class ServiceStats:
    """Point-in-time counters for the health endpoint and the load harness."""

    submitted: int
    accepted: int
    completed: int
    failed: int
    rejected: dict[str, int]        # shed reason -> count
    deadline_misses: int            # expired in queue + late completions
    late_completions: int
    batches: int
    batched_requests: int
    padded_rows: int                # zero rows executed to fill a bucket
    runs_by_width: dict[int, int]   # executed batch width -> batches
    reroutes: int                   # batches served by a non-primary backend
    queue_depth: int
    ewma_batch_ms: float
    per_backend_completed: dict[str, int]
    breakers: tuple[BreakerSnapshot, ...]
    draining: bool
    stopped: bool
    outstanding: int                # admitted, not yet resolved

    @property
    def total_rejected(self) -> int:
        return sum(self.rejected.values())

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted requests shed (0.0 when nothing arrived)."""
        if not self.submitted:
            return 0.0
        return self.total_rejected / self.submitted

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        document = dataclasses.asdict(self)
        document["breakers"] = [dataclasses.asdict(b) for b in self.breakers]
        document["shed_rate"] = round(self.shed_rate, 6)
        document["mean_batch_size"] = round(self.mean_batch_size, 3)
        return document


class InferenceService:
    """Async inference over a warm session pool, with admission control.

    Accepts every :class:`~repro.serve.pool.SessionPool` constructor
    argument (pass ``pool=`` to supply a prebuilt pool instead), plus the
    serving knobs documented below. Workers start immediately; use the
    service as a context manager (or call :meth:`close`) to drain.

    Args:
        worker_mode: ``"thread"`` (default) serves from an in-process
            :class:`SessionPool`; ``"process"`` builds a
            :class:`~repro.serve.supervisor.WorkerSupervisor` instead and
            serves every slot from a separate OS process — crash
            containment, heartbeats, restart backoff, and poison-request
            quarantine, at the cost of per-request pipe copies. The
            dispatchers, breakers, and admission queue are identical in
            both modes.
        queue_capacity: bound on queued requests; arrivals beyond it are
            shed ``queue-full``.
        default_deadline_ms: deadline applied to requests submitted
            without one (``None`` = unbounded).
        breaker_threshold / breaker_cooldown_s: circuit-breaker tuning,
            per backend.
        retry_jitter_frac / jitter_seed: bounded, seeded jitter applied
            to ``retry_after`` hints (see :class:`AdmissionQueue`).
    """

    def __init__(
        self,
        model: Any = None,
        *,
        pool: SessionPool | None = None,
        worker_mode: str = "thread",
        queue_capacity: int = 64,
        default_deadline_ms: float | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 1.0,
        retry_jitter_frac: float = 0.25,
        jitter_seed: int = 0,
        **pool_kwargs: Any,
    ) -> None:
        if (model is None) == (pool is None):
            raise ValueError("pass exactly one of `model` or `pool=`")
        if worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process', got "
                f"{worker_mode!r}")
        self._owns_pool = pool is None
        if pool is not None:
            self.pool = pool
        elif worker_mode == "process":
            from repro.serve.supervisor import (
                ProcessWorkerPool,
                WorkerSupervisor,
            )

            self.pool = ProcessWorkerPool(
                WorkerSupervisor(model, **pool_kwargs))
        else:
            self.pool = SessionPool(model, **pool_kwargs)
        self.worker_mode = self.pool.worker_mode
        self.default_deadline_ms = default_deadline_ms
        self.queue = AdmissionQueue(
            capacity=queue_capacity, workers=self.pool.workers,
            batch=self.pool.batch, retry_jitter_frac=retry_jitter_frac,
            jitter_seed=jitter_seed)
        self.breakers = {
            name: CircuitBreaker(name, failure_threshold=breaker_threshold,
                                 cooldown_s=breaker_cooldown_s)
            for name in self.pool.backends
        }
        self.sample_shape = self.pool.sample_shape
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._counter = 0            # guarded-by: _lock
        self._submitted = 0          # guarded-by: _lock
        self._accepted = 0           # guarded-by: _lock
        self._resolved = 0           # guarded-by: _lock
        self._completed = 0          # guarded-by: _lock
        self._failed = 0             # guarded-by: _lock
        self._late = 0               # guarded-by: _lock
        self._expired = 0            # guarded-by: _lock
        self._batches = 0            # guarded-by: _lock
        self._batched_requests = 0   # guarded-by: _lock
        self._padded_rows = 0        # guarded-by: _lock
        self._runs_by_width: dict[int, int] = {}  # guarded-by: _lock
        self._reroutes = 0           # guarded-by: _lock
        self._inflight = 0           # guarded-by: _lock
        self._per_backend: dict[str, int] = {  # guarded-by: _lock
            name: 0 for name in self.pool.backends}
        self._draining = False       # guarded-by: _lock
        self._stopped = False        # guarded-by: _lock
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(index,),
                name=f"serve-worker-{index}", daemon=True)
            for index in range(self.pool.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        sample: np.ndarray,
        deadline_ms: float | None = None,
        request_id: str | None = None,
    ) -> "PendingResponse | Rejected":
        """Admit one single-sample request, or shed it structurally.

        Returns a :class:`PendingResponse` on admission (resolve with
        ``.result(timeout)``) or an immediate :class:`Rejected` when
        admission control sheds the request. Malformed input (wrong sample
        shape) raises ``ValueError`` — that is a caller bug, not load.
        """
        sample = np.asarray(sample)
        if self.sample_shape is not None and tuple(sample.shape) != \
                self.sample_shape:
            raise ValueError(
                f"sample shape {tuple(sample.shape)} does not match the "
                f"model's per-sample input shape {self.sample_shape}")
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        with self._lock:
            self._submitted += 1
            self._counter += 1
            rid = request_id or f"r{self._counter}"
            draining = self._draining
        pending = PendingResponse(ServeRequest(
            id=rid, sample=sample, deadline_ms=deadline_ms,
            submitted_at=time.monotonic()))
        rejection = self.queue.try_admit(pending, draining=draining)
        if rejection is not None:
            pending.resolve(rejection)
            return rejection
        with self._lock:
            self._accepted += 1
        return pending

    # -- dispatcher ------------------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        while not self._stop.is_set():
            batch = self.queue.take_batch(self.pool.batch, BATCH_WINDOW_MS)
            if not batch:
                continue
            with self._lock:
                self._inflight += len(batch)
            try:
                self._dispatch(index, batch)
            finally:
                with self._idle:
                    self._inflight -= len(batch)
                    self._idle.notify_all()

    def _resolve(self, pending: PendingResponse,
                 outcome: "Completed | Rejected | Failed") -> None:
        """Resolve one *admitted* request; ``outstanding`` counts these.

        Counted first, so a caller holding its outcome never reads itself
        as still outstanding.
        """
        with self._lock:
            self._resolved += 1
        pending.resolve(outcome)

    def _dispatch(self, worker: int, batch: list[PendingResponse]) -> None:
        now = time.monotonic()
        live: list[PendingResponse] = []
        for pending in batch:
            remaining = pending.request.remaining_ms(now)
            if remaining is not None and remaining <= 0:
                self._resolve(pending, self.queue.shed(
                    pending.request.id, "expired-in-queue", None,
                    f"deadline passed {-remaining:.1f} ms before dispatch"))
                with self._lock:
                    self._expired += 1
                continue
            live.append(pending)
        # A batch may carry a poison request (process mode): shed the
        # quarantined members up front, and when quarantine is discovered
        # mid-dispatch (PoisonRequestError), shed those and re-dispatch
        # the innocent remainder. Each pass removes at least one request,
        # so this terminates.
        while live:
            live = self._shed_quarantined(live)
            if not live:
                return
            live = self._dispatch_once(worker, live)

    def _shed_quarantined(
        self, live: list[PendingResponse],
        poisoned: "set[str] | None" = None,
    ) -> list[PendingResponse]:
        """Resolve quarantined members of ``live``; return the innocents."""
        if poisoned is None:
            poisoned = self.pool.quarantined([p.request.id for p in live])
        if not poisoned:
            return live
        keep: list[PendingResponse] = []
        for pending in live:
            if pending.request.id in poisoned:
                self._resolve(pending, self.queue.shed(
                    pending.request.id, "quarantined", None,
                    "poison request: repeatedly killed its worker"))
            else:
                keep.append(pending)
        return keep

    def _dispatch_once(
        self, worker: int, live: list[PendingResponse],
    ) -> list[PendingResponse]:
        """Walk the backend chain once for ``live``.

        Returns the (possibly empty) list of requests that still need a
        dispatch — non-empty only when a poison request was quarantined
        mid-run and innocents from its batch deserve a fresh attempt.
        """
        feeds, count, width = self._assemble(live)
        run_deadline = self._run_deadline_ms(live)
        request_ids = tuple(p.request.id for p in live)
        failure: Failed | None = None
        for position, backend in enumerate(self.pool.backends):
            breaker = self.breakers[backend]
            if not breaker.allow():
                continue
            session = self.pool.session(backend, worker)
            started = time.perf_counter()
            try:
                if getattr(session, "accepts_request_ids", False):
                    outputs = session.run(
                        feeds, deadline_ms=run_deadline,
                        request_ids=request_ids)
                else:
                    outputs = session.run(feeds, deadline_ms=run_deadline)
            except PoisonRequestError as exc:
                # Not a backend failure: the batch contains a known-bad
                # request. No breaker penalty; retry the innocents.
                return self._shed_quarantined(live, set(exc.request_ids))
            except OrpheusError as exc:
                breaker.record_failure()
                failure = Failed(id="", error_type=type(exc).__name__,
                                 message=str(exc), backend=backend)
                continue
            elapsed = time.perf_counter() - started
            breaker.record_success()
            self.queue.observe_batch(elapsed)
            self._resolve_completed(live, outputs, backend, count)
            with self._lock:
                self._batches += 1
                self._batched_requests += count
                self._padded_rows += width - count
                self._runs_by_width[width] = \
                    self._runs_by_width.get(width, 0) + 1
                self._per_backend[backend] += count
                if position > 0:
                    self._reroutes += 1
            return []
        # No backend served the batch: every breaker was open, or every
        # allowed backend failed. Either way the outcome is structured.
        if failure is None:
            retry = min(
                (b.retry_after_s() for b in self.breakers.values()
                 if b.retry_after_s() is not None),
                default=None)
            for pending in live:
                self._resolve(pending, self.queue.shed(
                    pending.request.id, "breaker-open", retry,
                    "all backends tripped open"))
        else:
            for pending in live:
                self._resolve(pending, dataclasses.replace(
                    failure, id=pending.request.id))
            with self._lock:
                self._failed += len(live)
        return []

    def _assemble(
        self, live: list[PendingResponse],
    ) -> tuple[dict, int, int]:
        """``(feeds, live requests, executed width)`` for one batch.

        The batch is zero-padded up to the smallest bucket that holds it,
        so the rows nobody asked for are at most the gap to the next
        bucket, not the gap to the pool's full width.
        """
        samples = np.stack([p.request.sample for p in live])
        count = len(live)
        width = min(b for b in self.pool.buckets if b >= count)
        if count < width:
            pad = np.zeros(
                (width - count, *samples.shape[1:]), dtype=samples.dtype)
            samples = np.concatenate([samples, pad])
        return {self.pool.input_name: samples}, count, width

    @staticmethod
    def _run_deadline_ms(live: list[PendingResponse]) -> float | None:
        """Wall-clock budget for the batch execution itself.

        The *loosest* member deadline bounds the run: a single stale
        request must not kill a batch whose other members can still make
        their deadlines. Unbounded requests leave the run unbounded.
        """
        now = time.monotonic()
        worst = 0.0
        for pending in live:
            remaining = pending.request.remaining_ms(now)
            if remaining is None:
                return None
            worst = max(worst, remaining)
        return worst if worst > 0 else None

    def _resolve_completed(self, live: list[PendingResponse], outputs: dict,
                           backend: str, count: int) -> None:
        primary = next(iter(outputs.values()))
        now = time.monotonic()
        late = 0
        for index, pending in enumerate(live):
            request = pending.request
            remaining = request.remaining_ms(now)
            is_late = remaining is not None and remaining < 0
            late += int(is_late)
            self._resolve(pending, Completed(
                id=request.id,
                output=np.array(primary[index]),
                latency_ms=(now - request.submitted_at) * 1e3,
                backend=backend,
                batch_size=count,
                late=is_late))
        with self._lock:
            self._completed += len(live)
            self._late += late

    # -- lifecycle -------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, wait for queued + in-flight work to finish.

        Returns ``True`` when the service went idle within ``timeout``.
        New submissions are shed ``draining`` from the moment this is
        called; already-admitted requests run to completion.
        """
        with self._lock:
            self._draining = True
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        while True:
            with self._idle:
                if len(self.queue) == 0 and self._inflight == 0:
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining if remaining is not None else 0.1)

    def close(self, drain: bool = True, timeout: float | None = 10.0) -> None:
        """Shut down: optionally drain, then stop workers.

        Whatever is still queued when the workers stop is resolved
        ``stopped`` — a killed service still leaves no request unanswered.
        """
        with self._lock:
            if self._stopped:
                return
        if drain:
            self.drain(timeout=timeout)
        self._stop.set()
        for pending in self.queue.close():
            self._resolve(pending, self.queue.shed(
                pending.request.id, "stopped", None,
                "service shut down before dispatch"))
        for thread in self._threads:
            thread.join(timeout=5.0)
        if self._owns_pool:
            self.pool.close()  # process mode: shut the supervisor down
        with self._lock:
            self._stopped = True
            self._draining = True

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=exc_info[0] is None)

    # -- health ----------------------------------------------------------------

    def stats(self) -> ServiceStats:
        with self._lock:
            return ServiceStats(
                submitted=self._submitted,
                accepted=self._accepted,
                completed=self._completed,
                failed=self._failed,
                rejected=self.queue.shed_counts(),
                deadline_misses=self._expired + self._late,
                late_completions=self._late,
                batches=self._batches,
                batched_requests=self._batched_requests,
                padded_rows=self._padded_rows,
                runs_by_width=dict(sorted(self._runs_by_width.items())),
                reroutes=self._reroutes,
                queue_depth=len(self.queue),
                ewma_batch_ms=self.queue.ewma_batch_s * 1e3,
                per_backend_completed=dict(self._per_backend),
                breakers=tuple(
                    b.snapshot() for b in self.breakers.values()),
                draining=self._draining,
                stopped=self._stopped,
                outstanding=self._accepted - self._resolved,
            )

    def health(self) -> dict:
        """JSON-ready health document for the CLI and the smoke job."""
        stats = self.stats()
        supervisor_stats = self.pool.supervision()
        status = "ok"
        if stats.stopped:
            status = "stopped"
        elif stats.draining:
            status = "draining"
        elif any(b.state != "closed" for b in stats.breakers):
            status = "degraded"
        elif supervisor_stats is not None and \
                supervisor_stats.alive < supervisor_stats.workers:
            status = "degraded"
        document = {
            "status": status,
            "model": self.pool.model_name,
            "backends": list(self.pool.backends),
            "workers": self.pool.workers,
            "worker_mode": self.worker_mode,
            "max_batch": self.pool.batch,
            "buckets": list(self.pool.buckets),
            "stats": stats.to_dict(),
        }
        if supervisor_stats is not None:
            document["supervisor"] = supervisor_stats.to_dict()
        return document
