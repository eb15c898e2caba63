"""Load generator: open-loop accounting must close the books exactly."""

import threading

import numpy as np
import pytest

from repro.serve import loadgen
from repro.serve.loadgen import percentile, run_load
from repro.serve.pool import SessionPool
from repro.serve.service import InferenceService
from repro.serve.types import Rejected
from tests.serve.helpers import make_factory


def make_service(behaviour=None, **kwargs):
    pool = SessionPool("fake", backends=("a",), workers=1, batch=2,
                       session_factory=make_factory(behaviour))
    return InferenceService(pool=pool, **kwargs)


class _FrozenClock:
    """Stands in for loadgen's ``time``: the clock never advances, so the
    delay a client sleeps before a request *is* that request's due offset."""

    def __init__(self):
        self._slept = threading.local()

    def monotonic(self):
        return 0.0

    def sleep(self, delay):
        self._slept.last = delay

    def last_sleep(self):
        return self._slept.last


class _ThreadNotingRng:
    """A real Generator that remembers which threads drew from it."""

    def __init__(self, rng):
        self._rng = rng
        self.drew_in = set()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def noting(*args, **kwargs):
            self.drew_in.add(threading.get_ident())
            return method(*args, **kwargs)
        return noting


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_nearest_rank(self):
        data = [10.0, 20.0, 30.0, 40.0]
        assert percentile(data, 50) == 20.0
        assert percentile(data, 100) == 40.0
        assert percentile(data, 1) == 10.0

    def test_order_insensitive(self):
        assert percentile([3.0, 1.0, 2.0], 100) == 3.0


class TestRunLoad:
    def test_books_close_with_zero_silent_drops(self):
        with make_service() as service:
            report = run_load(service, rps=40.0, duration_s=0.5,
                              clients=2, seed=1)
        assert report.offered > 0
        assert report.completed > 0
        assert report.silent_drops == 0
        assert report.offered == (report.completed + report.total_rejected
                                  + report.failed + report.timed_out)
        assert len(report.latencies_ms) == report.completed
        assert sum(report.per_backend.values()) == report.completed

    def test_saturation_sheds_structurally_not_silently(self):
        behaviour = {"a": {"delay_s": 0.05}}
        with make_service(behaviour=behaviour,
                          queue_capacity=2) as service:
            report = run_load(service, rps=200.0, duration_s=0.5,
                              clients=4, seed=2)
        assert report.total_rejected > 0      # overload was shed...
        assert report.silent_drops == 0       # ...with zero vanishing
        assert report.completed > 0           # while work still flowed
        assert set(report.rejected) <= {"queue-full", "overload"}

    def test_custom_sample_and_rps_validation(self):
        with make_service() as service:
            with pytest.raises(ValueError, match="rps"):
                run_load(service, rps=0.0, duration_s=0.1)
            report = run_load(
                service, rps=10.0, duration_s=0.2, clients=1,
                sample=np.ones((4,), dtype=np.float32), seed=3)
        assert report.silent_drops == 0

    def test_same_seed_gives_same_first_arrival_offsets(self, monkeypatch):
        clock = _FrozenClock()
        monkeypatch.setattr(loadgen, "time", clock)
        real_default_rng = np.random.default_rng
        rngs = []

        def noting_default_rng(seed):
            rngs.append(_ThreadNotingRng(real_default_rng(seed)))
            return rngs[-1]
        monkeypatch.setattr(np.random, "default_rng", noting_default_rng)

        class Service:
            """Sheds everything; notes when each request was due."""
            sample_shape = (4,)

            def __init__(self):
                self.due = {}

            def submit(self, sample, deadline_ms=None, request_id=None):
                self.due[request_id] = clock.last_sleep()
                return Rejected(request_id, "queue-full", None)

        def first_arrivals(seed):
            service = Service()
            report = run_load(service, rps=6.0, duration_s=1.0, clients=3,
                              seed=seed)
            assert report.offered == report.total_rejected == 6
            return [service.due[f"c{index}-0"] for index in range(3)]

        offsets = first_arrivals(5)
        assert first_arrivals(5) == offsets
        assert first_arrivals(6) != offsets
        assert len(set(offsets)) == 3     # each client has its own jitter
        # A Generator is not thread-safe and thread start order is not
        # seeded: every draw must happen before the client threads exist.
        assert all(rng.drew_in == {threading.get_ident()} for rng in rngs)

    def test_to_dict_round_trips_the_invariant(self):
        with make_service() as service:
            report = run_load(service, rps=20.0, duration_s=0.3,
                              clients=1, seed=4)
        document = report.to_dict()
        assert document["silent_drops"] == 0
        assert document["offered"] == report.offered
        assert set(document["latency_ms"]) == {"p50", "p90", "p99", "max"}
