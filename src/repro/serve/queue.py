"""Bounded request queue with admission control and backpressure.

Admission happens at submit time, before a request consumes any queue
capacity. Three policies convert saturation into structured
:class:`~repro.serve.types.Rejected` responses instead of unbounded
latency:

* **depth bound** — the queue holds at most ``capacity`` requests; at
  capacity new arrivals are shed (``queue-full``) with a drain-time
  estimate as ``retry_after_s``.
* **estimated-wait backpressure** — the controller keeps an EWMA of
  per-item service time; a request whose estimated queueing wait already
  exceeds its deadline is shed up front (``overload``) rather than
  admitted to expire in the queue.
* **deadline scrubbing** — the dispatcher re-checks deadlines when it
  dequeues; an admitted request whose deadline expired while waiting is
  resolved ``expired-in-queue`` (and counted as a deadline miss), never
  silently run late or dropped.

The queue also implements the *coalescing* side of dynamic batching: the
dispatcher takes one request (blocking); if nothing else is queued it goes
alone at once, and if a batch is already forming it gathers up to
``batch - 1`` more within a latency window. Requests that pile up while a
batch runs amortize into one batched execution, a lone request never waits
for company, and no one waits longer than the window to fill a batch.
"""

from __future__ import annotations

import collections
import random
import threading
import time

from repro.serve.types import PendingResponse, Rejected


class AdmissionQueue:
    """Thread-safe bounded FIFO of :class:`PendingResponse` with admission.

    ``retry_jitter_frac`` spreads ``retry_after_s`` hints by a bounded
    random factor in ``[1, 1 + frac]`` so that a burst of simultaneous
    rejections does not come back as a synchronized retry stampede. The
    jitter stream is seeded (``jitter_seed``) so tests and benchmarks see
    a deterministic sequence of hints.
    """

    def __init__(
        self,
        capacity: int = 64,
        workers: int = 1,
        batch: int = 1,
        ewma_alpha: float = 0.2,
        initial_service_s: float = 0.05,
        retry_jitter_frac: float = 0.25,
        jitter_seed: int = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 <= retry_jitter_frac <= 1.0:
            raise ValueError(
                f"retry_jitter_frac must be in [0, 1], got {retry_jitter_frac}")
        self.capacity = capacity
        self.workers = max(1, workers)
        self.batch = max(1, batch)
        self._alpha = ewma_alpha
        # EWMA of one *batch* execution's wall time, at whatever width
        # traffic produces; seeded with a guess that the first few
        # observations quickly wash out.
        self._ewma_batch_s = initial_service_s   # guarded-by: _lock
        self._observations = 0                   # guarded-by: _lock
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._items: collections.deque[PendingResponse] = (  # guarded-by: _lock
            collections.deque())
        self._closed = False                     # guarded-by: _lock
        self._jitter_frac = retry_jitter_frac
        # shed() is called both under self._lock (try_admit) and without
        # it from dispatcher threads, so its state gets its own lock
        # (order: _lock -> _shed_lock; dispatchers take only the latter).
        self._shed_lock = threading.Lock()
        self.sheds: dict[str, int] = {}                # guarded-by: _shed_lock
        self._jitter_rng = random.Random(jitter_seed)  # guarded-by: _shed_lock

    # -- admission -------------------------------------------------------------

    def estimated_wait_s(self, depth: int | None = None) -> float:
        """Expected queueing delay for a new arrival at the current depth.

        ``depth / (workers * batch)`` batches are ahead of the new arrival,
        plus its own batch; each costs one EWMA batch time. Deliberately a
        coarse model — it only needs to be right about *saturation*, where
        the queue is deep and the estimate is dominated by depth.

        The EWMA is one batch execution *at whatever width traffic
        produces* (the service pads a batch to its bucket, not to
        ``batch``). Under sparse traffic that makes the estimate exact: a
        lone request is costed at the width-1 time it will actually take,
        so a deadline between the width-1 and the full-width time is
        admitted and met instead of shed ``overload``. At saturation
        batches are full and nothing changes. In between, the first few
        batches of a burst after idle are estimated up to ``batch`` times
        too cheap, until about five wide observations have moved the
        average.
        """
        with self._lock:
            if depth is None:
                depth = len(self._items)
            ewma = self._ewma_batch_s
        batches_ahead = depth / (self.workers * self.batch)
        return (batches_ahead + 1.0) * ewma

    def try_admit(
        self, pending: PendingResponse, draining: bool = False,
    ) -> Rejected | None:
        """Admit ``pending`` or return the structured rejection.

        Never blocks: backpressure here is a *reply*, not a stall — the
        caller (or its client library) owns the retry policy, guided by
        ``retry_after_s``.
        """
        request = pending.request
        with self._lock:
            if self._closed:
                return self.shed(request.id, "stopped", None,
                                 "service is shut down")
            if draining:
                return self.shed(request.id, "draining", None,
                                 "service is draining; no new work accepted")
            depth = len(self._items)
            if depth >= self.capacity:
                drain_s = (depth / (self.workers * self.batch)) \
                    * self._ewma_batch_s
                return self.shed(
                    request.id, "queue-full", drain_s,
                    f"queue at capacity ({self.capacity})")
            if request.deadline_ms is not None:
                wait_s = ((depth / (self.workers * self.batch)) + 1.0) \
                    * self._ewma_batch_s
                if wait_s * 1e3 > request.deadline_ms:
                    return self.shed(
                        request.id, "overload",
                        max(0.0, wait_s - request.deadline_ms / 1e3),
                        f"estimated wait {wait_s * 1e3:.1f} ms exceeds "
                        f"deadline {request.deadline_ms:g} ms")
            self._items.append(pending)
            self._not_empty.notify()
            return None

    def shed(self, request_id: str, reason: str,
             retry_after_s: float | None, message: str) -> Rejected:
        """Build a structured rejection and count it (one ledger of sheds).

        Also used by the dispatcher for the shed reasons that are only
        decidable at dispatch time (``breaker-open``, ``expired-in-queue``)
        so every shed in the service lands in one counter dict.
        """
        with self._shed_lock:
            self.sheds[reason] = self.sheds.get(reason, 0) + 1
            if retry_after_s is not None and self._jitter_frac > 0.0:
                retry_after_s *= 1.0 + self._jitter_frac \
                    * self._jitter_rng.random()
        return Rejected(id=request_id, reason=reason,
                        retry_after_s=retry_after_s, message=message)

    # -- dispatch --------------------------------------------------------------

    def take_batch(
        self, max_batch: int, window_ms: float, poll_s: float = 0.05,
    ) -> list[PendingResponse]:
        """Take 1..``max_batch`` requests, coalescing within ``window_ms``.

        Blocks up to ``poll_s`` for the first request (returns ``[]`` on
        timeout or shutdown so dispatcher loops stay responsive). If no
        second request is queued by then, returns the first alone at once:
        under sparse traffic the next arrival is far away, and waiting for
        it would only add the window to this request's latency. Otherwise
        a batch is forming, so it gathers more until the batch is full or
        the window closes.
        """
        with self._not_empty:
            if not self._items:
                self._not_empty.wait(poll_s)
            if not self._items:
                return []
            batch = [self._items.popleft()]
            if max_batch <= 1 or window_ms <= 0 or not self._items:
                return batch
            deadline = time.monotonic() + window_ms / 1e3
            while len(batch) < max_batch:
                if self._items:
                    batch.append(self._items.popleft())
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._not_empty.wait(remaining):
                    break
            return batch

    # -- bookkeeping -----------------------------------------------------------

    def observe_batch(self, seconds: float) -> None:
        """Feed one batch execution's wall time into the EWMA.

        Whatever its width: the average follows the widths traffic
        produces (see :meth:`estimated_wait_s`).

        Non-finite or negative durations are discarded: a clock that
        steps backwards between two ``perf_counter`` reads (VM suspend,
        NTP on a broken monotonic source) must not poison the estimate
        that admission control steers by.
        """
        if not (seconds == seconds) or seconds in (
                float("inf"), float("-inf")) or seconds < 0.0:
            return
        with self._lock:
            self._ewma_batch_s += self._alpha * (seconds - self._ewma_batch_s)
            self._observations += 1

    def shed_counts(self) -> dict[str, int]:
        """Shed reason -> count, copied under the lock that counts them."""
        with self._shed_lock:
            return dict(self.sheds)

    @property
    def observations(self) -> int:
        """How many batch timings have actually fed the EWMA."""
        with self._lock:
            return self._observations

    @property
    def ewma_batch_s(self) -> float:
        with self._lock:
            return self._ewma_batch_s

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def close(self) -> list[PendingResponse]:
        """Stop accepting and return whatever was still queued.

        The caller must resolve the returned requests (the service rejects
        them as ``stopped``) — closing never silently drops work.
        """
        with self._not_empty:
            self._closed = True
            stranded = list(self._items)
            self._items.clear()
            self._not_empty.notify_all()
            return stranded
