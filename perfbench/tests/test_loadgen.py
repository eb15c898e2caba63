"""Due-time accounting of the generators, against a fake service and clock."""

import threading

from perfbench import loadgen


class FakeClock:
    """Time that moves only when someone sleeps or stalls on it."""

    def __init__(self) -> None:
        self._now = 100.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += seconds

    def sleep(self, seconds: float) -> None:
        self.advance(max(seconds, 5e-5))    # sleep(0) still takes a moment


class Response:
    def __init__(self, output=None, reason=None):
        if output is not None:
            self.output = output
        if reason is not None:
            self.reason = reason


class Handle:
    def __init__(self, response):
        self._response = response

    def result(self, timeout):
        return self._response


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    clock = FakeClock()
    stall_s = 0.5

    def submit(outcome):
        if outcome.index == 1:
            clock.advance(stall_s)      # the service blocks the submitter
        return Handle(Response(output=outcome.index))

    schedule = [(0.1 * position, 0) for position in range(5)]
    outcomes = loadgen.run_open_loop(
        submit, schedule, clock=clock, sleep=clock.sleep)

    lateness = [o.lateness_s for o in outcomes]
    # Requests 0 and 1 left on time; 2..4 were due during the stall and are
    # late by what was left of it — not "on time, measured from sending".
    assert max(lateness[:2]) < 1e-3
    for position in (2, 3, 4):
        expected = stall_s - 0.1 * (position - 1)
        assert abs(lateness[position] - expected) < 1e-3
    for outcome in outcomes:
        assert outcome.kind == "completed"
        assert outcome.latency_s >= outcome.lateness_s
        assert outcome.latency_s == outcome.resolved - outcome.due
    assert loadgen.counts(outcomes) == {
        "sent": 5, "completed": 5, "rejected": 0, "failed": 0, "timed_out": 0}


def test_every_request_ends_as_exactly_one_kind():
    clock = FakeClock()

    def submit(outcome):
        if outcome.index == 0:
            return Response(reason="queue-full")       # shed at the door
        if outcome.index == 1:
            raise ValueError("bad sample")             # submit raised
        if outcome.index == 2:
            return Handle(None)                        # never resolved
        if outcome.index == 3:
            return Handle(object())                    # a Failed-like value
        return Handle(Response(output=1.0))

    outcomes = loadgen.run_open_loop(
        submit, [(0.01 * i, 0) for i in range(5)],
        clock=clock, sleep=clock.sleep, timeout_s=0.1)
    assert [o.kind for o in outcomes] == [
        "rejected", "failed", "timed_out", "failed", "completed"]
    tally = loadgen.counts(outcomes)
    assert tally["sent"] == sum(tally[kind] for kind in loadgen.KINDS)


def test_closed_loop_keeps_the_window_full_and_sends_when_a_slot_frees():
    clock = FakeClock()
    outstanding = []
    peak = []

    class Slow:
        def __init__(self, outcome):
            outstanding.append(outcome.index)
            peak.append(len(outstanding))

        def result(self, timeout):
            clock.advance(0.05)
            outstanding.pop(0)
            return Response(output=0.0)

    outcomes = loadgen.run_closed_loop(
        Slow, list(range(10)), window=4, clock=clock)
    assert len(outcomes) == 10 and max(peak) == 4
    assert all(o.kind == "completed" for o in outcomes)
    # A closed-loop request is due when it is sent: no lateness by definition.
    assert all(o.lateness_s == 0.0 or o.lateness_s < 1e-9 for o in outcomes)
    # The fifth request could only be sent once the first had resolved.
    assert outcomes[4].due >= outcomes[0].resolved


def test_schedule_is_a_function_of_the_seed():
    import numpy as np

    first = loadgen.jittered_schedule(np.random.default_rng(7), 8.0, 16, 0.4, 4)
    again = loadgen.jittered_schedule(np.random.default_rng(7), 8.0, 16, 0.4, 4)
    other = loadgen.jittered_schedule(np.random.default_rng(8), 8.0, 16, 0.4, 4)
    assert first == again and first != other
    offsets = [offset for offset, _ in first]
    assert offsets == sorted(offsets) and offsets[0] >= 0.0
    assert all(0 <= image < 4 for _, image in first)
