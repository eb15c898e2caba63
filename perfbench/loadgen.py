"""The benchmark's own load generators: open loop and windowed closed loop.

The in-tree ``repro.serve.loadgen`` times a request from its submission,
shares one RNG across threads and reports no lateness, so a stall in the
service (or in the generator) silently shortens the latencies of the
requests queued behind it. Here:

* the arrival schedule is fixed up front by the caller (from the seed);
* latency runs from the instant a request was *due* to the instant its
  outcome was *observed*, so a stall is charged to every request it delays;
* how late the generator itself ran (sent minus due) is reported;
* every request ends as exactly one of completed / rejected / failed /
  timed_out, counted per phase.

Nothing here imports the program: ``submit`` is any callable returning
either a terminal response or a handle with ``result(timeout)``, and
responses are told apart by shape (``output`` / ``reason``), which is what
lets the tests drive the generators against a fake service and clock.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import queue
import threading
import time
from collections.abc import Callable, Sequence
from typing import Any

#: How far ahead of its first arrival an open-loop phase starts.
_LEAD_S = 0.005
#: Sleep until this close to the due time, then spin.
_SPIN_S = 0.0003

KINDS = ("completed", "rejected", "failed", "timed_out")


@dataclasses.dataclass
class Outcome:
    """One request's life: when it was due, sent, and seen to end."""

    index: int
    image: int
    due: float
    sent: float = math.nan
    admitted: float = math.nan
    resolved: float = math.nan
    kind: str = "timed_out"
    output: Any = None
    detail: str = ""

    @property
    def request_id(self) -> str:
        return f"q{self.index}"

    @property
    def latency_s(self) -> float:
        """Due time to observed resolution — not from when it was sent."""
        return self.resolved - self.due

    @property
    def lateness_s(self) -> float:
        """How late the generator sent it."""
        return self.sent - self.due


Submit = Callable[[Outcome], Any]


def _settle(outcome: Outcome, response: Any, now: float) -> None:
    outcome.resolved = now
    if response is None:
        outcome.kind = "timed_out"
    elif hasattr(response, "output"):
        outcome.kind = "completed"
        outcome.output = response.output
    elif hasattr(response, "reason"):
        outcome.kind = "rejected"
        outcome.detail = str(response.reason)
    else:
        outcome.kind = "failed"
        outcome.detail = str(response)


def _send(submit: Submit, outcome: Outcome, clock) -> Any:
    """Call ``submit``; a raise is a failed request, not a dead generator."""
    outcome.sent = clock()
    try:
        handle = submit(outcome)
    except Exception as exc:  # noqa: BLE001 - boundary: count it, keep going
        outcome.admitted = clock()
        outcome.kind = "failed"
        outcome.detail = f"raised {type(exc).__name__}: {exc}"
        outcome.resolved = outcome.admitted
        return None
    outcome.admitted = clock()
    if not hasattr(handle, "result"):       # shed at the door: terminal
        _settle(outcome, handle, outcome.admitted)
        return None
    return handle


def run_open_loop(
    submit: Submit,
    schedule: Sequence[tuple[float, int]],
    *,
    first_index: int = 0,
    timeout_s: float = 30.0,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Outcome]:
    """Send ``schedule`` — ``(offset_s, image)`` pairs — on time, whatever
    the service does; the calling thread submits, one more thread collects.
    """
    start = clock() + _LEAD_S
    outcomes = [Outcome(index=first_index + position, image=image,
                        due=start + offset)
                for position, (offset, image) in enumerate(schedule)]
    handles: queue.SimpleQueue = queue.SimpleQueue()

    def collect() -> None:
        while True:
            item = handles.get()
            if item is None:
                return
            outcome, handle = item
            remaining = max(0.0, outcome.due + timeout_s - clock())
            _settle(outcome, handle.result(remaining), clock())

    collector = threading.Thread(target=collect, name="loadgen-collector")
    collector.start()
    try:
        for outcome in outcomes:
            while True:
                remaining = outcome.due - clock()
                if remaining <= 0:
                    break
                # Sleep overshoots, so stop short and spin the rest —
                # yielding each turn, the service needs the interpreter too.
                sleep(max(0.0, remaining - _SPIN_S))
            handle = _send(submit, outcome, clock)
            if handle is not None:
                handles.put((outcome, handle))
    finally:
        handles.put(None)
        collector.join()
    return outcomes


def run_closed_loop(
    submit: Submit,
    images: Sequence[int],
    window: int,
    *,
    first_index: int = 0,
    timeout_s: float = 30.0,
    clock: Callable[[], float] = time.perf_counter,
) -> list[Outcome]:
    """One thread keeping ``window`` requests outstanding until ``images``
    is used up. A request is due the moment its slot frees, so a slow
    service receives less load: that is what a closed loop means.
    """
    outcomes: list[Outcome] = []
    outstanding: collections.deque = collections.deque()
    pending_images = collections.deque(images)
    while pending_images or outstanding:
        while pending_images and len(outstanding) < window:
            outcome = Outcome(index=first_index + len(outcomes),
                              image=pending_images.popleft(), due=clock())
            outcomes.append(outcome)
            handle = _send(submit, outcome, clock)
            if handle is not None:
                outstanding.append((outcome, handle))
        if outstanding:
            outcome, handle = outstanding.popleft()
            remaining = max(0.0, outcome.due + timeout_s - clock())
            _settle(outcome, handle.result(remaining), clock())
    return outcomes


def counts(outcomes: Sequence[Outcome]) -> dict[str, int]:
    """``sent`` plus one count per terminal kind (they sum to ``sent``)."""
    tally = {"sent": len(outcomes), **{kind: 0 for kind in KINDS}}
    for outcome in outcomes:
        tally[outcome.kind] += 1
    return tally


def jittered_schedule(rng, rate: float, count: int, jitter: float,
                      pool: int) -> list[tuple[float, int]]:
    """``count`` arrivals at ``rate``/s, each moved by up to ``jitter`` of a
    period either way, each carrying a seeded image index below ``pool``."""
    period = 1.0 / rate
    offsets = sorted(
        (position + 0.5 + jitter * float(rng.uniform(-1.0, 1.0))) * period
        for position in range(count))
    return [(offset, int(rng.integers(pool))) for offset in offsets]
