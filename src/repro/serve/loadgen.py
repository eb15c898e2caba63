"""Open-loop load generator for :class:`~repro.serve.service.InferenceService`.

Open-loop matters: a closed-loop client (send, wait, send) slows down with
the server and can never *over*load it, hiding exactly the saturation
behaviour this harness exists to measure (the coordinated-omission trap).
Here arrivals are scheduled on a fixed clock at the requested rate across
``clients`` submitter threads — if the service falls behind, requests
keep arriving and admission control has to answer for every one of them.

The report closes the books: ``offered`` must equal completed + rejected +
failed + timed out, and ``silent_drops`` (requests that never reached a
terminal outcome) must be zero — the invariant the acceptance criteria
and the CI smoke job assert.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time

import numpy as np

from repro.serve.service import InferenceService
from repro.serve.types import Completed, Failed, Rejected


#: How long a client waits for each admitted request's outcome before
#: counting it ``timed_out``. The service resolves every request it admits,
#: so this only bounds a bug: 30 s is far above any deadline the CLI or the
#: chaos battery sets (2 s) and ends a hung run inside a 5-minute CI step.
RESULT_TIMEOUT_S = 30.0


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 on an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[min(rank, len(ordered)) - 1]


@dataclasses.dataclass(frozen=True)
class LoadReport:
    """What one load run offered, and what came back."""

    offered: int
    completed: int
    rejected: dict[str, int]
    failed: int
    timed_out: int           # no terminal outcome within the wait bound
    duration_s: float
    target_rps: float
    latencies_ms: tuple[float, ...]     # accepted-and-completed only
    late_completions: int
    per_backend: dict[str, int]

    @property
    def total_rejected(self) -> int:
        return sum(self.rejected.values())

    @property
    def silent_drops(self) -> int:
        """Requests that vanished without a structured outcome (must be 0)."""
        return self.offered - self.completed - self.total_rejected \
            - self.failed - self.timed_out

    @property
    def achieved_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    @property
    def shed_rate(self) -> float:
        return self.total_rejected / self.offered if self.offered else 0.0

    def latency_ms(self, q: float) -> float:
        return percentile(list(self.latencies_ms), q)

    def to_dict(self) -> dict:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "rejected": dict(self.rejected),
            "failed": self.failed,
            "timed_out": self.timed_out,
            "silent_drops": self.silent_drops,
            "duration_s": round(self.duration_s, 3),
            "target_rps": round(self.target_rps, 2),
            "achieved_rps": round(self.achieved_rps, 2),
            "shed_rate": round(self.shed_rate, 4),
            "late_completions": self.late_completions,
            "latency_ms": {
                "p50": round(self.latency_ms(50), 3),
                "p90": round(self.latency_ms(90), 3),
                "p99": round(self.latency_ms(99), 3),
                "max": round(max(self.latencies_ms, default=0.0), 3),
            },
            "per_backend": dict(self.per_backend),
        }


def run_load(
    service: InferenceService,
    rps: float,
    duration_s: float,
    clients: int = 2,
    deadline_ms: float | None = None,
    sample: np.ndarray | None = None,
    seed: int = 0,
) -> LoadReport:
    """Drive ``service`` open-loop at ``rps`` for ``duration_s`` seconds.

    ``clients`` submitter threads each carry ``rps / clients``; arrival
    times are fixed up front (uniform spacing with a small seeded jitter),
    so the offered load does not adapt to the service's behaviour. Each
    submitter then waits for its requests' outcomes; a request with no
    outcome after :data:`RESULT_TIMEOUT_S` counts as ``timed_out`` (and
    shows up in ``silent_drops`` accounting only if the service *also*
    never resolves it).
    """
    if rps <= 0:
        raise ValueError(f"rps must be > 0, got {rps}")
    clients = max(1, clients)
    rng = np.random.default_rng(seed)
    if sample is None:
        shape = service.sample_shape or (4,)
        sample = rng.standard_normal(shape).astype(np.float32)

    per_client = rps / clients
    total_per_client = max(1, int(round(per_client * duration_s)))
    spacing = 1.0 / per_client
    # Drawn here, not in the client threads: a Generator is not
    # thread-safe, and draws made there would follow thread start order,
    # so ``seed`` would not fix which client gets which offset.
    jitters = rng.uniform(0, spacing, size=clients)
    lock = threading.Lock()
    latencies: list[float] = []
    rejected: dict[str, int] = {}
    per_backend: dict[str, int] = {}
    counters = {"completed": 0, "failed": 0, "timed_out": 0, "offered": 0,
                "late": 0}

    def client(index: int) -> None:
        start = time.monotonic() + 0.01
        pendings = []
        for n in range(total_per_client):
            due = start + n * spacing + (jitters[index] if n == 0 else 0.0)
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            with lock:
                counters["offered"] += 1
            outcome = service.submit(
                sample, deadline_ms=deadline_ms,
                request_id=f"c{index}-{n}")
            if isinstance(outcome, Rejected):
                with lock:
                    rejected[outcome.reason] = \
                        rejected.get(outcome.reason, 0) + 1
                continue
            pendings.append(outcome)
        for pending in pendings:
            result = pending.result(timeout=RESULT_TIMEOUT_S)
            with lock:
                if result is None:
                    counters["timed_out"] += 1
                elif isinstance(result, Completed):
                    counters["completed"] += 1
                    counters["late"] += int(result.late)
                    latencies.append(result.latency_ms)
                    per_backend[result.backend] = \
                        per_backend.get(result.backend, 0) + 1
                elif isinstance(result, Rejected):
                    rejected[result.reason] = \
                        rejected.get(result.reason, 0) + 1
                elif isinstance(result, Failed):
                    counters["failed"] += 1

    started = time.monotonic()
    threads = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    return LoadReport(
        offered=counters["offered"],
        completed=counters["completed"],
        rejected=rejected,
        failed=counters["failed"],
        timed_out=counters["timed_out"],
        duration_s=elapsed,
        target_rps=rps,
        latencies_ms=tuple(latencies),
        late_completions=counters["late"],
        per_backend=per_backend,
    )
