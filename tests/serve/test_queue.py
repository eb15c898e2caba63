"""Admission queue: depth bound, wait backpressure, coalescing, close."""

import threading
import time

import numpy as np
import pytest

from repro.serve.queue import AdmissionQueue
from repro.serve.types import PendingResponse, Rejected, ServeRequest


def make_pending(request_id="r1", deadline_ms=None):
    return PendingResponse(ServeRequest(
        id=request_id, sample=np.zeros(4, dtype=np.float32),
        deadline_ms=deadline_ms, submitted_at=time.monotonic()))


class TestAdmission:
    def test_admits_until_capacity_then_sheds_queue_full(self):
        queue = AdmissionQueue(capacity=2)
        assert queue.try_admit(make_pending("a")) is None
        assert queue.try_admit(make_pending("b")) is None
        rejection = queue.try_admit(make_pending("c"))
        assert isinstance(rejection, Rejected)
        assert rejection.reason == "queue-full"
        assert rejection.retry_after_s is not None
        assert queue.shed_counts() == {"queue-full": 1}
        assert len(queue) == 2  # the shed request consumed no capacity

    def test_overload_sheds_up_front_when_wait_exceeds_deadline(self):
        # EWMA seeded at 50 ms: a 10 ms deadline can never be met, so the
        # request must be shed at admission, not admitted to expire.
        queue = AdmissionQueue(capacity=64, initial_service_s=0.05)
        rejection = queue.try_admit(make_pending(deadline_ms=10.0))
        assert rejection is not None
        assert rejection.reason == "overload"
        assert "deadline" in rejection.message

    def test_loose_deadline_is_admitted(self):
        queue = AdmissionQueue(capacity=64, initial_service_s=0.05)
        assert queue.try_admit(make_pending(deadline_ms=500.0)) is None

    def test_draining_sheds_everything(self):
        queue = AdmissionQueue(capacity=4)
        rejection = queue.try_admit(make_pending(), draining=True)
        assert rejection.reason == "draining"

    def test_closed_sheds_stopped(self):
        queue = AdmissionQueue(capacity=4)
        queue.close()
        rejection = queue.try_admit(make_pending())
        assert rejection.reason == "stopped"
        assert rejection.retry_after_s is None

    def test_a_shed_between_anothers_read_and_write_is_counted(self):
        queue = AdmissionQueue(capacity=1)
        second = []

        class Interleaving(dict):
            """Runs a whole second shed() inside the first one's read."""

            def get(self, key, default=None):
                value = super().get(key, default)
                if not second:
                    second.append(threading.Thread(
                        target=queue.shed, args=("b", "overload", None, "")))
                    second[0].start()
                    # Bounds the wait and decides nothing: unlocked, the
                    # second shed finishes here and its count is then
                    # overwritten; locked, it blocks until ours is written.
                    second[0].join(timeout=0.2)
                return value

        queue.sheds = Interleaving()
        queue.shed("a", "overload", None, "")
        second[0].join(timeout=5.0)
        assert not second[0].is_alive()
        assert queue.shed_counts() == {"overload": 2}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)


class TestBatching:
    def test_take_batch_returns_empty_on_timeout(self):
        queue = AdmissionQueue(capacity=4)
        assert queue.take_batch(4, window_ms=1.0, poll_s=0.01) == []

    def test_take_batch_coalesces_waiting_items(self):
        queue = AdmissionQueue(capacity=8)
        pendings = [make_pending(f"r{i}") for i in range(3)]
        for pending in pendings:
            queue.try_admit(pending)
        batch = queue.take_batch(4, window_ms=1.0)
        assert [p.request.id for p in batch] == ["r0", "r1", "r2"]
        assert len(queue) == 0

    def test_take_batch_respects_max_batch(self):
        queue = AdmissionQueue(capacity=8)
        for index in range(5):
            queue.try_admit(make_pending(f"r{index}"))
        assert len(queue.take_batch(2, window_ms=1.0)) == 2
        assert len(queue) == 3

    def test_window_zero_takes_single_item_immediately(self):
        queue = AdmissionQueue(capacity=8)
        queue.try_admit(make_pending("a"))
        queue.try_admit(make_pending("b"))
        batch = queue.take_batch(4, window_ms=0.0)
        assert len(batch) == 1

    def test_lone_request_is_not_held(self):
        # Nothing else is queued, so there is no batch forming for the
        # window to fill: the request goes at once, however long the
        # window, without ever waiting on the condition.
        queue = AdmissionQueue(capacity=8)
        queue.try_admit(make_pending("alone"))

        def must_not_wait(timeout=None):
            raise AssertionError(f"lone request held for {timeout} s")

        queue._not_empty.wait = must_not_wait
        batch = queue.take_batch(4, window_ms=60_000)
        assert [p.request.id for p in batch] == ["alone"]

    def test_window_picks_up_late_arrival(self):
        # Two queued requests are a batch already forming: the window
        # holds it open, and a third that arrives inside it joins.
        queue = AdmissionQueue(capacity=8)
        queue.try_admit(make_pending("first"))
        queue.try_admit(make_pending("second"))
        late = make_pending("late")

        def arrive_late():
            time.sleep(0.02)
            queue.try_admit(late)

        thread = threading.Thread(target=arrive_late)
        thread.start()
        batch = queue.take_batch(4, window_ms=200.0)
        thread.join()
        assert [p.request.id for p in batch] == ["first", "second", "late"]


class TestBookkeeping:
    def test_ewma_moves_toward_observations(self):
        queue = AdmissionQueue(ewma_alpha=0.5, initial_service_s=0.1)
        queue.observe_batch(0.3)
        assert queue.ewma_batch_s == pytest.approx(0.2)
        queue.observe_batch(0.3)
        assert queue.ewma_batch_s == pytest.approx(0.25)

    def test_estimated_wait_scales_with_depth(self):
        queue = AdmissionQueue(capacity=64, workers=2, batch=2,
                               initial_service_s=0.1)
        empty = queue.estimated_wait_s()
        assert empty == pytest.approx(0.1)  # own batch only
        for index in range(8):
            queue.try_admit(make_pending(f"r{index}"))
        # 8 queued / (2 workers * batch 2) = 2 batch-rounds ahead + own
        assert queue.estimated_wait_s() == pytest.approx(0.3)

    def test_ewma_cold_start_uses_the_seed_estimate(self):
        queue = AdmissionQueue(initial_service_s=0.07)
        assert queue.observations == 0
        assert queue.ewma_batch_s == pytest.approx(0.07)
        assert queue.estimated_wait_s() == pytest.approx(0.07)

    def test_ewma_single_sample(self):
        queue = AdmissionQueue(ewma_alpha=0.2, initial_service_s=0.1)
        queue.observe_batch(0.2)
        assert queue.observations == 1
        assert queue.ewma_batch_s == pytest.approx(0.1 + 0.2 * (0.2 - 0.1))

    def test_ewma_ignores_clock_going_backwards(self):
        # A perf_counter pair straddling a VM suspend can yield a negative
        # duration; it must not poison the admission estimate.
        queue = AdmissionQueue(ewma_alpha=0.5, initial_service_s=0.1)
        queue.observe_batch(-1.0)
        assert queue.observations == 0
        assert queue.ewma_batch_s == pytest.approx(0.1)

    def test_ewma_ignores_non_finite_durations(self):
        queue = AdmissionQueue(ewma_alpha=0.5, initial_service_s=0.1)
        queue.observe_batch(float("nan"))
        queue.observe_batch(float("inf"))
        queue.observe_batch(float("-inf"))
        assert queue.observations == 0
        assert queue.ewma_batch_s == pytest.approx(0.1)
        queue.observe_batch(0.0)  # zero is a legal (very fast) duration
        assert queue.observations == 1
        assert queue.ewma_batch_s == pytest.approx(0.05)

    def test_close_returns_stranded_items(self):
        queue = AdmissionQueue(capacity=8)
        pendings = [make_pending(f"r{index}") for index in range(3)]
        for pending in pendings:
            queue.try_admit(pending)
        stranded = queue.close()
        assert stranded == pendings
        assert len(queue) == 0
        # closing wakes blocked take_batch calls with an empty batch
        assert queue.take_batch(4, window_ms=1.0, poll_s=0.01) == []


class TestRetryJitter:
    def test_retry_after_jitter_is_bounded(self):
        queue = AdmissionQueue(retry_jitter_frac=0.25, jitter_seed=1)
        base = 2.0
        for _ in range(50):
            rejection = queue.shed("r", "queue-full", base, "full")
            assert base <= rejection.retry_after_s <= base * 1.25

    def test_same_seed_same_hint_sequence(self):
        queue_a = AdmissionQueue(retry_jitter_frac=0.5, jitter_seed=42)
        queue_b = AdmissionQueue(retry_jitter_frac=0.5, jitter_seed=42)
        seq_a = [queue_a.shed("r", "queue-full", 1.0, "x").retry_after_s
                 for _ in range(10)]
        seq_b = [queue_b.shed("r", "queue-full", 1.0, "x").retry_after_s
                 for _ in range(10)]
        assert seq_a == seq_b
        assert len(set(seq_a)) > 1  # it actually jitters

    def test_different_seed_different_sequence(self):
        queue_a = AdmissionQueue(retry_jitter_frac=0.5, jitter_seed=1)
        queue_b = AdmissionQueue(retry_jitter_frac=0.5, jitter_seed=2)
        seq_a = [queue_a.shed("r", "queue-full", 1.0, "x").retry_after_s
                 for _ in range(10)]
        seq_b = [queue_b.shed("r", "queue-full", 1.0, "x").retry_after_s
                 for _ in range(10)]
        assert seq_a != seq_b

    def test_zero_frac_disables_jitter(self):
        queue = AdmissionQueue(retry_jitter_frac=0.0)
        rejection = queue.shed("r", "queue-full", 3.0, "full")
        assert rejection.retry_after_s == 3.0

    def test_none_retry_hint_stays_none(self):
        queue = AdmissionQueue(retry_jitter_frac=0.25)
        assert queue.shed("r", "stopped", None, "bye").retry_after_s is None

    def test_frac_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="retry_jitter_frac"):
            AdmissionQueue(retry_jitter_frac=1.5)
        with pytest.raises(ValueError, match="retry_jitter_frac"):
            AdmissionQueue(retry_jitter_frac=-0.1)
