"""Resource guardrails: per-run deadlines, memory budgets."""

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    MemoryBudgetError,
    OrpheusError,
)
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.session import InferenceSession
from tests.conftest import tiny_classifier


def feed(session):
    (info,) = session.graph.inputs
    shape = tuple(max(d, 1) for d in info.shape)
    rng = np.random.default_rng(0)
    return {info.name: rng.standard_normal(shape).astype(np.float32)}


class TestDeadline:
    def test_expired_deadline_raises_before_first_node(self):
        session = InferenceSession(tiny_classifier())
        with pytest.raises(DeadlineExceededError) as excinfo:
            session.run(feed(session), deadline_ms=1e-6)
        err = excinfo.value
        assert isinstance(err, ExecutionError)  # catchable at the boundary
        assert err.completed_nodes < err.total_nodes
        assert err.total_nodes > 0
        assert err.deadline_s == pytest.approx(1e-9)
        assert err.elapsed_s >= 0

    def test_mid_run_expiry_carries_partial_timeline(self):
        """A slowdown fault on an early node burns the budget mid-run: the
        error must carry the layers that did complete."""
        plan = FaultPlan([FaultSpec(mode="slowdown", slowdown_s=0.05,
                                    max_triggers=1)])
        session = InferenceSession(tiny_classifier(), fault_plan=plan)
        with pytest.raises(DeadlineExceededError) as excinfo:
            session.run(feed(session), deadline_ms=10.0)
        err = excinfo.value
        assert 0 < err.completed_nodes < err.total_nodes
        assert len(err.partial_timings) == err.completed_nodes
        assert all(t.seconds >= 0 for t in err.partial_timings)

    def test_per_call_deadline_overrides_config(self):
        session = InferenceSession(tiny_classifier())
        # No config deadline: runs fine...
        session.run(feed(session))
        # ...but a per-call expired deadline still trips.
        with pytest.raises(DeadlineExceededError):
            session.run(feed(session), deadline_ms=1e-6)

    def test_generous_deadline_does_not_interfere(self):
        session = InferenceSession(tiny_classifier())
        outputs = session.run(feed(session), deadline_ms=60_000)
        assert set(outputs) == set(session.output_names)

    def test_time_and_profile_honour_deadline(self):
        session = InferenceSession(tiny_classifier())
        with pytest.raises(DeadlineExceededError):
            session.time(feed(session), repeats=1, warmup=0,
                         deadline_ms=1e-6)
        with pytest.raises(DeadlineExceededError):
            session.profile(feed(session), repeats=1, warmup=0,
                            deadline_ms=1e-6)

    def test_invalid_deadline_rejected_up_front(self):
        session = InferenceSession(tiny_classifier())
        for deadline_ms in (0.0, -1.0):
            with pytest.raises(ValueError, match="deadline_ms"):
                session.run(feed(session), deadline_ms=deadline_ms)
            with pytest.raises(ValueError, match="deadline_ms"):
                session.time(feed(session), repeats=1, warmup=0,
                             deadline_ms=deadline_ms)


class TestMemoryBudget:
    def test_over_budget_rejected_at_prepare(self):
        with pytest.raises(MemoryBudgetError) as excinfo:
            InferenceSession(tiny_classifier(), memory_budget_bytes=1)
        err = excinfo.value
        assert isinstance(err, OrpheusError)
        assert err.budget_bytes == 1
        assert err.required_bytes > 1

    def test_under_budget_admitted(self):
        session = InferenceSession(tiny_classifier(),
                                   memory_budget_bytes=1 << 30)
        admission = session.memory_admission
        assert admission.bounded
        assert admission.required_bytes <= admission.budget_bytes
        session.run(feed(session))

    def test_no_budget_means_unbounded_admission(self):
        session = InferenceSession(tiny_classifier())
        assert not session.memory_admission.bounded
