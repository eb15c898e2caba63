"""Acceptance test for the serve-chaos battery (process worker mode).

This is the issue's acceptance criterion, executed for real: K=2 of N=4
process workers SIGKILLed mid-load with zero silent drops and bounded
recovery, a poison request quarantined within two worker deaths, and a
hung worker detected by heartbeat loss — all against the ``@loopback``
model so the whole battery runs in a few seconds.
"""

import types

import pytest

from repro.serve import service as service_mod
from repro.serve.chaos import calibrate_saturation_rps, run_chaos_bench
from repro.serve.pool import SessionPool
from repro.serve.service import InferenceService
from tests.serve.helpers import make_factory

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def chaos_doc():
    return run_chaos_bench(
        model="@loopback", workers=4, kill=2, batch=2,
        duration_s=1.5, clients=4, deadline_ms=2000.0,
        seed=7, recovery_window_s=10.0)


def scenario(doc, name):
    matches = [s for s in doc["scenarios"] if s["scenario"] == name]
    assert len(matches) == 1, f"expected one {name!r} scenario"
    return matches[0]


class TestChaosAcceptance:
    def test_battery_passes_end_to_end(self, chaos_doc):
        failing = {
            s["scenario"]: [k for k, ok in s["checks"].items() if not ok]
            for s in chaos_doc["scenarios"] if not s["passed"]
        }
        assert chaos_doc["passed"], f"failed checks: {failing}"
        assert chaos_doc["schema"] == "repro/serve-chaos@1"
        assert chaos_doc["workers"] == 4
        assert chaos_doc["killed"] == 2

    def test_worker_kill_closes_the_books(self, chaos_doc):
        kill = scenario(chaos_doc, "worker-kill")
        assert kill["checks"]["zero_silent_drops"]
        assert kill["load"]["silent_drops"] == 0
        assert kill["load"]["completed"] > 0
        assert len(kill["killed"]) == 2

    def test_worker_kill_recovers_within_window(self, chaos_doc):
        kill = scenario(chaos_doc, "worker-kill")
        assert kill["recovery_s"] is not None
        assert kill["recovery_s"] <= kill["recovery_window_s"]
        assert kill["supervision"]["restarts"] >= 2
        assert kill["supervision"]["disabled"] == 0
        assert kill["supervision"]["alive"] == 4

    def test_poison_quarantined_within_two_deaths(self, chaos_doc):
        poison = scenario(chaos_doc, "poison-quarantine")
        assert poison["checks"]["quarantined"]
        assert poison["crash_failures"] <= poison["quarantine_threshold"] == 2
        assert "poison-1" in poison["supervision"]["quarantined"]
        assert poison["checks"]["innocents_unaffected"]

    def test_hang_detected_and_contained(self, chaos_doc):
        hang = scenario(chaos_doc, "hang-heartbeat")
        assert hang["checks"]["structural_outcome"]
        assert hang["checks"]["silence_detected"]
        assert hang["checks"]["recovered"]


def test_kill_bounds_validated():
    with pytest.raises(ValueError, match="kill"):
        run_chaos_bench(model="@loopback", workers=2, kill=3)


def test_calibration_times_full_batches(monkeypatch):
    """Saturation is full batches, so that is what calibration must time.

    Structural, no clock read: with requests warmed one at a time every
    recorded width is 1 — the EWMA settles on the width-1 plan's time and
    the "saturation" rate comes out about ``batch`` times too high.
    """
    factory = make_factory()

    def with_graph(backend, index):
        # a graph-like object so the pool learns the per-sample shape
        session = factory(backend, index)
        session.graph = types.SimpleNamespace(
            inputs=[types.SimpleNamespace(shape=(4, 4))])
        return session

    pool = SessionPool("fake", backends=("a",), workers=1, batch=4,
                       session_factory=with_graph)
    monkeypatch.setattr(service_mod, "BATCH_WINDOW_MS", 500.0)
    with InferenceService(pool=pool) as service:
        rps = calibrate_saturation_rps(service)
        widths = [shape[0] for shape in factory.sessions[0].batch_shapes]
        assert service.queue.observations == len(widths)
    assert rps > 0
    assert len(widths) >= 2
    assert set(widths[1:]) == {4}
