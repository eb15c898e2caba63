"""InferenceService: batching, shedding, breaker routing, drain/close.

Everything here runs against :class:`tests.serve.helpers.FakeSession`
pools (milliseconds per test); the real-model path is covered by
``test_pool.py`` and the CLI integration tests.
"""

import threading
import time
import types

import numpy as np
import pytest

from repro.serve import service as service_mod
from repro.serve.pool import SessionPool
from repro.serve.service import InferenceService
from repro.serve.types import Completed, Failed, Rejected
from tests.serve.helpers import FailurePlan, make_factory


def make_service(backends=("a",), workers=1, batch=1, behaviour=None,
                 **kwargs):
    factory = make_factory(behaviour)
    pool = SessionPool("fake", backends=backends, workers=workers,
                       batch=batch, session_factory=factory)
    service = InferenceService(pool=pool, **kwargs)
    service._factory = factory  # stash for inspection
    return service


def sample(value=1.0, size=4):
    return np.full((size,), value, dtype=np.float32)


class TestRoundtrip:
    def test_submit_and_complete(self):
        with make_service() as service:
            pending = service.submit(sample(3.0))
            outcome = pending.result(timeout=5.0)
        assert isinstance(outcome, Completed)
        assert outcome.backend == "a"
        assert outcome.batch_size == 1
        np.testing.assert_allclose(outcome.output, sample(6.0))
        assert outcome.latency_ms >= 0

    def test_requires_model_xor_pool(self):
        pool = SessionPool("fake", session_factory=make_factory())
        with pytest.raises(ValueError, match="exactly one"):
            InferenceService("model", pool=pool)
        with pytest.raises(ValueError, match="exactly one"):
            InferenceService()

    def test_sample_shape_is_validated_when_known(self):
        factory = make_factory()

        def with_graph(backend, index):
            # a graph-like object so the pool learns the input shape
            session = factory(backend, index)
            session.graph = types.SimpleNamespace(
                inputs=[types.SimpleNamespace(shape=(1, 4))])
            return session
        pool = SessionPool("fake", backends=("a",),
                           session_factory=with_graph)
        with InferenceService(pool=pool) as service:
            with pytest.raises(ValueError, match="shape"):
                service.submit(np.zeros((3,), dtype=np.float32))
            outcome = service.submit(sample()).result(timeout=5.0)
            assert isinstance(outcome, Completed)

    def test_default_deadline_is_applied(self):
        # default deadline below the 50 ms EWMA seed: shed at admission
        with make_service(default_deadline_ms=1.0) as service:
            outcome = service.submit(sample())
        assert isinstance(outcome, Rejected)
        assert outcome.reason == "overload"


class TestBatching:
    def test_lone_request_is_not_held_for_the_window(self, monkeypatch):
        # Nothing else is queued, so the request goes at once: a minute-long
        # window never delays it.
        monkeypatch.setattr(service_mod, "BATCH_WINDOW_MS", 60_000.0)
        with make_service(batch=4) as service:
            outcome = service.submit(sample(5.0)).result(timeout=5.0)
            stats = service.stats()
        assert isinstance(outcome, Completed)
        assert outcome.batch_size == 1
        assert stats.runs_by_width == {1: 1}

    def test_coalesced_batch_slices_per_request_outputs(self):
        # A gated request holds the dispatcher while three more queue up
        # behind it; when the gate opens they are taken as one batch.
        gate = threading.Event()
        with make_service(batch=4,
                          behaviour={"a": {"gate": gate}}) as service:
            session = service._factory.sessions[0]
            holder = service.submit(sample(0.0))
            assert session.started.wait(timeout=5.0)
            pendings = [service.submit(sample(float(v))) for v in (1, 2, 3)]
            gate.set()
            assert isinstance(holder.result(timeout=5.0), Completed)
            outcomes = [p.result(timeout=5.0) for p in pendings]
        assert all(isinstance(o, Completed) for o in outcomes)
        # the three waiting requests coalesced into one batch...
        assert {o.batch_size for o in outcomes} == {3}
        # ...and each got its own slice, not the padded batch
        for value, outcome in zip((1, 2, 3), outcomes):
            np.testing.assert_allclose(outcome.output, sample(2.0 * value))

    def test_padding_reaches_the_session_at_full_batch_width(self):
        # What width reaches the session: the smallest bucket that holds
        # the batch. A lone request runs at width 1 — never padded to the
        # pool's batch — and three coalesced requests run at the full
        # width 4 with one zero row. The lone request holds the gate while
        # the three queue behind it.
        gate = threading.Event()
        with make_service(batch=4,
                          behaviour={"a": {"gate": gate}}) as service:
            assert service.pool.buckets == (1, 2, 4)
            session = service._factory.sessions[0]
            alone = service.submit(sample(5.0))
            assert session.started.wait(timeout=5.0)
            pendings = [service.submit(sample(float(v))) for v in (1, 2, 3)]
            gate.set()
            alone = alone.result(timeout=5.0)
            outcomes = [p.result(timeout=5.0) for p in pendings]
            stats = service.stats()
        assert isinstance(alone, Completed)
        assert alone.batch_size == 1
        np.testing.assert_allclose(alone.output, sample(10.0))
        assert [shape[0] for shape in session.batch_shapes] == [1, 4]
        for value, outcome in zip((1, 2, 3), outcomes):
            assert outcome.batch_size == 3
            np.testing.assert_allclose(outcome.output, sample(2.0 * value))
        assert stats.padded_rows == 1
        assert stats.runs_by_width == {1: 1, 4: 1}
        # The row books close: every executed row is a request or a zero.
        assert sum(w * n for w, n in stats.runs_by_width.items()) \
            == stats.batched_requests + stats.padded_rows

    def test_mean_batch_size_tracked(self):
        with make_service(batch=2) as service:
            for _ in range(4):
                service.submit(sample()).result(timeout=5.0)
            stats = service.stats()
        assert stats.batches >= 1
        assert stats.batched_requests == 4
        assert 1.0 <= stats.mean_batch_size <= 2.0


class TestShedding:
    def test_queue_full_sheds_structurally(self):
        with make_service(queue_capacity=1,
                          behaviour={"a": {"delay_s": 0.1}}) as service:
            running = service.submit(sample())
            time.sleep(0.02)  # let the worker take it off the queue
            admitted = service.submit(sample())   # fills the queue
            overflow = service.submit(sample())   # exceeds it
            assert isinstance(overflow, Rejected)
            assert overflow.reason == "queue-full"
            assert overflow.retry_after_s is not None
            assert running.result(timeout=5.0).ok
            assert admitted.result(timeout=5.0).ok
        assert service.stats().rejected["queue-full"] >= 1

    def test_expired_in_queue_resolves_not_drops(self):
        with make_service(behaviour={"a": {"delay_s": 0.15}}) as service:
            blocker = service.submit(sample())      # no deadline, runs long
            time.sleep(0.02)
            doomed = service.submit(sample(), deadline_ms=60.0)
            assert not isinstance(doomed, Rejected)  # admitted...
            outcome = doomed.result(timeout=5.0)
            assert blocker.result(timeout=5.0).ok
        assert isinstance(outcome, Rejected)         # ...but expired waiting
        assert outcome.reason == "expired-in-queue"
        assert service.stats().rejected["expired-in-queue"] == 1
        assert service.stats().deadline_misses >= 1

    def test_every_admitted_request_reaches_a_terminal_outcome(self):
        with make_service(queue_capacity=2,
                          behaviour={"a": {"delay_s": 0.02}}) as service:
            outcomes = [service.submit(sample()) for _ in range(20)]
            resolved = [o if isinstance(o, Rejected)
                        else o.result(timeout=5.0) for o in outcomes]
        assert all(r is not None for r in resolved)
        completed = sum(isinstance(r, Completed) for r in resolved)
        shed = sum(isinstance(r, Rejected) for r in resolved)
        assert completed + shed == 20
        stats = service.stats()
        assert stats.outstanding == 0


class TestBreakerRouting:
    def test_failures_reroute_to_next_backend(self):
        behaviour = {"a": {"failures": FailurePlan(fail_first=100)}}
        with make_service(backends=("a", "b"), behaviour=behaviour,
                          breaker_threshold=2,
                          breaker_cooldown_s=30.0) as service:
            outcomes = [service.submit(sample()).result(timeout=5.0)
                        for _ in range(4)]
        assert all(isinstance(o, Completed) for o in outcomes)
        assert {o.backend for o in outcomes} == {"b"}
        stats = service.stats()
        trips = {s.backend: s.trips for s in stats.breakers}
        assert trips == {"a": 1, "b": 0}    # a tripped after 2 failures
        assert stats.reroutes == 4          # every batch served off-chain
        state = {s.backend: s.state for s in stats.breakers}
        assert state["a"] == "open"
        assert state["b"] == "closed"

    def test_trip_reroute_recover_sequence(self):
        behaviour = {"a": {"failures": FailurePlan(fail_first=2)}}
        with make_service(backends=("a", "b"), behaviour=behaviour,
                          breaker_threshold=2,
                          breaker_cooldown_s=0.05) as service:
            first = [service.submit(sample()).result(timeout=5.0)
                     for _ in range(2)]
            assert {o.backend for o in first} == {"b"}  # a failing, b serving
            time.sleep(0.08)                            # cooldown elapses
            probe = service.submit(sample()).result(timeout=5.0)
            after = service.submit(sample()).result(timeout=5.0)
            breaker = service.stats().breakers[0]
        assert probe.backend == "a"      # half-open probe hit the primary
        assert after.backend == "a"      # ...and recovery stuck
        assert breaker.backend == "a"
        assert breaker.trips >= 1
        assert breaker.recoveries == 1

    def test_all_backends_down_is_failed_then_breaker_open(self):
        behaviour = {"a": {"failures": FailurePlan(fail_first=100)}}
        with make_service(backends=("a",), behaviour=behaviour,
                          breaker_threshold=1,
                          breaker_cooldown_s=30.0) as service:
            first = service.submit(sample()).result(timeout=5.0)
            second = service.submit(sample()).result(timeout=5.0)
        assert isinstance(first, Failed)             # ran and failed
        assert first.error_type == "FallbackExhaustedError"
        assert first.backend == "a"
        assert isinstance(second, Rejected)          # breaker now open
        assert second.reason == "breaker-open"
        # the cooldown hint, stretched by bounded retry jitter (<= 1.25x)
        assert 29.0 <= second.retry_after_s <= 30.0 * 1.25 + 1.0
        stats = service.stats()
        assert stats.failed == 1
        assert stats.outstanding == 0

    def test_health_degrades_when_a_breaker_opens(self):
        behaviour = {"a": {"failures": FailurePlan(fail_first=100)}}
        with make_service(backends=("a", "b"), behaviour=behaviour,
                          breaker_threshold=1,
                          breaker_cooldown_s=30.0) as service:
            assert service.health()["status"] == "ok"
            service.submit(sample()).result(timeout=5.0)
            assert service.health()["status"] == "degraded"


class TestLifecycle:
    def test_drain_finishes_inflight_and_sheds_new(self):
        with make_service(behaviour={"a": {"delay_s": 0.05}}) as service:
            inflight = [service.submit(sample()) for _ in range(3)]
            drainer = threading.Thread(target=service.drain)
            drainer.start()
            time.sleep(0.01)
            late = service.submit(sample())
            drainer.join(timeout=5.0)
            assert not drainer.is_alive()
        assert isinstance(late, Rejected)
        assert late.reason == "draining"
        assert all(p.result(timeout=5.0).ok for p in inflight)

    def test_drain_times_out_when_work_is_stuck(self):
        with make_service(behaviour={"a": {"delay_s": 0.5}}) as service:
            service.submit(sample())
            time.sleep(0.01)
            assert service.drain(timeout=0.05) is False

    def test_close_without_drain_resolves_stranded_as_stopped(self):
        service = make_service(behaviour={"a": {"delay_s": 0.2}})
        running = service.submit(sample())
        time.sleep(0.02)  # worker picks it up; the rest stay queued
        queued = [service.submit(sample()) for _ in range(3)]
        service.close(drain=False, timeout=0.1)
        outcomes = [p.result(timeout=5.0) for p in queued]
        assert all(isinstance(o, Rejected) and o.reason == "stopped"
                   for o in outcomes)
        assert running.result(timeout=5.0) is not None  # never silent
        assert service.submit(sample()).reason == "stopped"
        assert service.health()["status"] == "stopped"

    def test_submit_after_close_is_not_outstanding(self):
        # "stopped" is also the admission-time reason once the queue is
        # closed; only what the service itself resolved may be subtracted.
        service = InferenceService("@loopback", workers=1)
        assert service.submit(sample()).result(timeout=5.0).ok
        service.close()
        assert service.submit(sample()).reason == "stopped"
        stats = service.stats()
        assert (stats.accepted, stats.completed) == (1, 1)
        assert stats.rejected == {"stopped": 1}
        assert stats.outstanding == 0

    def test_close_is_idempotent(self):
        service = make_service()
        service.close()
        service.close()
        assert service.stats().stopped

    def test_context_manager_drains_on_clean_exit(self):
        with make_service() as service:
            pending = service.submit(sample())
        assert pending.result(timeout=0.0).ok
        assert service.stats().stopped


class TestStats:
    def test_accounting_identity_holds(self):
        behaviour = {"a": {"delay_s": 0.01}}
        with make_service(queue_capacity=2, behaviour=behaviour) as service:
            pendings = []
            for _ in range(15):
                outcome = service.submit(sample())
                if not isinstance(outcome, Rejected):
                    pendings.append(outcome)
            for pending in pendings:
                pending.result(timeout=5.0)
            stats = service.stats()
        assert stats.submitted == 15
        assert stats.accepted == len(pendings)
        terminal = (stats.completed + stats.failed
                    + sum(stats.rejected.get(reason, 0)
                          for reason in ("expired-in-queue", "breaker-open",
                                         "stopped")))
        assert stats.accepted == terminal
        assert stats.submitted == stats.accepted + sum(
            stats.rejected.get(reason, 0)
            for reason in ("queue-full", "overload", "draining"))

    def test_to_dict_is_json_ready(self):
        import json

        with make_service() as service:
            service.submit(sample()).result(timeout=5.0)
            document = service.stats().to_dict()
        json.dumps(document)  # no numpy scalars, no dataclass leftovers
        assert document["completed"] == 1
        assert isinstance(document["breakers"], list)
