"""Deterministic fakes for serving-layer tests.

A :class:`FakeSession` stands in for ``InferenceSession`` through the
``session_factory`` seam of :class:`~repro.serve.pool.SessionPool`: it
implements ``run`` with scriptable latency and failure behaviour, so service tests exercise admission, batching, breaker,
and drain logic without compiling a model (milliseconds, not seconds).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.errors import FallbackExhaustedError


class FailurePlan:
    """Shared, thread-safe budget of run failures for one backend."""

    def __init__(self, fail_first: int = 0) -> None:
        self._remaining = fail_first
        self._lock = threading.Lock()

    def should_fail(self) -> bool:
        with self._lock:
            if self._remaining > 0:
                self._remaining -= 1
                return True
            return False


class FakeSession:
    """Session double: output is ``sample * 2``, summed to one scalar row.

    Args:
        backend / index: identity (mirrors the factory signature).
        delay_s: wall time each ``run`` burns, to simulate service time.
        failures: optional :class:`FailurePlan` shared across workers —
            while its budget lasts, every run raises
            :class:`FallbackExhaustedError` (the error the real executor
            surfaces when a kernel chain is exhausted).
        gate: optional event every ``run`` blocks on until it is set.
            ``started`` is set as a run begins, so a test can hold one
            request in flight, queue a burst behind it, then open the
            gate: the burst is queued before the dispatcher takes again.
    """

    def __init__(self, backend: str, index: int, delay_s: float = 0.0,
                 failures: FailurePlan | None = None,
                 gate: threading.Event | None = None) -> None:
        self.backend = backend
        self.index = index
        self.delay_s = delay_s
        self.failures = failures
        self.gate = gate
        self.started = threading.Event()
        self.run_deadlines: list[float | None] = []
        self.batch_shapes: list[tuple[int, ...]] = []

    def run(self, feeds: dict, deadline_ms: float | None = None) -> dict:
        self.run_deadlines.append(deadline_ms)
        self.batch_shapes.append(
            tuple(np.asarray(next(iter(feeds.values()))).shape))
        self.started.set()
        if self.gate is not None:
            self.gate.wait(timeout=10.0)
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.failures is not None and self.failures.should_fail():
            raise FallbackExhaustedError(
                f"injected: {self.backend} worker {self.index}")
        batch = np.asarray(next(iter(feeds.values())))
        return {"out": batch * 2.0}


def make_factory(behaviour: dict | None = None):
    """``session_factory`` building FakeSessions; per-backend behaviour.

    ``behaviour`` maps backend name to ``{"delay_s": ..., "failures": ...,
    "gate": ...}``.
    The created sessions are collected in the returned factory's
    ``.sessions`` list for later inspection.
    """
    behaviour = behaviour or {}

    def factory(backend: str, index: int) -> FakeSession:
        knobs = behaviour.get(backend, {})
        session = FakeSession(backend, index, **knobs)
        factory.sessions.append(session)
        return session

    factory.sessions = []
    return factory
