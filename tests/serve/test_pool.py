"""Session pool: shared weights, engine-cache reuse, per-worker fault plans."""

import numpy as np
import pytest

from repro.engine.cache import EngineCache
from repro.errors import ExecutionError, MemoryBudgetError
from repro.serve.pool import SessionPool
from repro.serve.service import InferenceService
from repro.serve.supervisor import (
    ProcessWorkerPool,
    SupervisorStats,
    WorkerSupervisor,
)
from tests.conftest import baked_batch_classifier, tiny_classifier
from tests.serve.helpers import FakeSession, make_factory


class TestConstruction:
    def test_validates_workers_and_backends(self):
        with pytest.raises(ValueError, match="workers"):
            SessionPool("x", workers=0, session_factory=FakeSession)
        with pytest.raises(ValueError, match="backend"):
            SessionPool("x", backends=(), session_factory=FakeSession)

    def test_factory_builds_one_session_per_backend_per_worker(self):
        factory = make_factory()
        pool = SessionPool("fake", backends=("a", "b"), workers=3,
                           session_factory=factory)
        assert len(factory.sessions) == 6
        assert pool.session("a", 0) is not pool.session("a", 1)
        assert pool.session("b", 2).backend == "b"
        assert [pool.session("a", w) for w in range(pool.workers)] \
            == factory.sessions[:3]


class _Forwarding:
    """The shape of perfbench's traced pool: a proxy that forwards every
    attribute it does not define, so it must pass for a pool unprobed."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestServiceSurface:
    """The five members InferenceService reads off either pool kind."""

    @pytest.mark.parametrize("build, mode, shape, supervised", [
        (lambda: SessionPool("fake", session_factory=make_factory()),
         "thread", None, False),
        (lambda: SessionPool("@loopback"), "thread", (4,), False),
        pytest.param(
            lambda: ProcessWorkerPool(WorkerSupervisor(
                "@loopback", workers=1)),
            "process", (4,), True, marks=pytest.mark.slow),
    ], ids=["factory", "loopback", "process"])
    def test_both_pool_kinds_state_what_they_are(
            self, build, mode, shape, supervised):
        pool = build()
        try:
            assert pool.worker_mode == mode
            assert pool.sample_shape == shape
            assert pool.quarantined(["r1"]) == set()
            stats = pool.supervision()
            assert isinstance(stats, SupervisorStats) if supervised \
                else stats is None
            with InferenceService(pool=_Forwarding(pool)) as service:
                assert service.worker_mode == mode
                assert service.sample_shape == shape
                outcome = service.submit(
                    np.ones(4, dtype=np.float32)).result(timeout=10.0)
                assert outcome.ok
                np.testing.assert_allclose(outcome.output, 2.0)
                assert ("supervisor" in service.health()) == supervised
        finally:
            pool.close()


class TestWarmPath:
    def test_workers_share_one_copy_of_the_weights(self):
        """The headline property: N sessions, one weight set."""
        pool = SessionPool(tiny_classifier(), backends=("orpheus",),
                           workers=3, batch=1)
        sessions = [pool.session("orpheus", w) for w in range(pool.workers)]
        assert len(sessions) == 3
        first = sessions[0].graph
        for session in sessions[1:]:
            assert session.graph is first  # by reference, not a copy
        for name, array in first.initializers.items():
            for session in sessions[1:]:
                assert session.graph.initializers[name] is array

    def test_workers_and_buckets_share_one_copy_of_the_weights(self):
        """Workers x buckets sessions, still one weight set."""
        pool = SessionPool(tiny_classifier(batch=4), backends=("orpheus",),
                           workers=2, batch=4)
        assert pool.buckets == (1, 2, 4)
        weights = pool.session("orpheus", 0).graph.initializers
        assert weights
        for worker in (pool.session("orpheus", w)
                       for w in range(pool.workers)):
            assert sorted(worker.by_width) == [1, 2, 4]
            for width, session in worker.by_width.items():
                assert session.graph.inputs[0].shape[0] == width
                assert session.graph.initializers.keys() == weights.keys()
                for name, array in weights.items():
                    assert session.graph.initializers[name] is array

    def test_workers_agree_on_outputs(self):
        graph = tiny_classifier()
        pool = SessionPool(graph, backends=("orpheus",), workers=2, batch=1)
        feeds = {pool.input_name: np.random.default_rng(0)
                 .standard_normal((1, 3, 8, 8)).astype(np.float32)}
        out0 = pool.session("orpheus", 0).run(feeds)
        out1 = pool.session("orpheus", 1).run(feeds)
        for name in out0:
            np.testing.assert_allclose(out0[name], out1[name])

    def test_engine_cache_hit_on_second_pool(self, tmp_path):
        cache = EngineCache(tmp_path / "engines")
        kwargs = dict(backends=("orpheus",), workers=2, batch=1,
                      engine_cache=cache)
        cold = SessionPool(tiny_classifier(), **kwargs)
        assert cold.engine_hits == {"orpheus": False}
        warm = SessionPool(tiny_classifier(), **kwargs)
        assert warm.engine_hits == {"orpheus": True}

    def test_engine_cache_accepts_a_directory_path(self, tmp_path):
        pool = SessionPool(tiny_classifier(), backends=("orpheus",),
                           workers=1, batch=1,
                           engine_cache=str(tmp_path / "engines"))
        assert pool.engine_hits == {"orpheus": False}
        assert (tmp_path / "engines").exists()

    def test_input_name_comes_from_the_graph(self):
        pool = SessionPool(tiny_classifier(), backends=("orpheus",),
                           workers=1, batch=1)
        assert pool.input_name == "input"


class TestBuckets:
    @pytest.mark.parametrize("batch, buckets", [
        (1, (1,)), (4, (1, 2, 4)), (6, (1, 2, 4, 6)), (8, (1, 2, 4, 8))])
    def test_a_real_pool_states_its_buckets(self, batch, buckets):
        pool = SessionPool(tiny_classifier(batch=batch), workers=1,
                           batch=batch)
        assert pool.buckets == buckets
        assert sorted(pool.session("orpheus", 0).by_width) == list(buckets)

    def test_doubles_state_every_bucket_of_the_batch(self):
        # FakeSession and LoopbackSession take any width.
        assert SessionPool("fake", batch=6, session_factory=make_factory()
                           ).buckets == (1, 2, 4, 6)
        assert SessionPool("@loopback", batch=4).buckets == (1, 2, 4)

    def test_each_width_runs_its_own_plan_and_rows_are_samples(self):
        pool = SessionPool(tiny_classifier(batch=4), workers=1, batch=4)
        worker = pool.session("orpheus", 0)
        samples = np.random.default_rng(0).standard_normal(
            (4, 3, 8, 8)).astype(np.float32)
        wide = next(iter(worker.run({"input": samples}).values()))
        for width in (1, 2):
            rows = next(iter(worker.run({"input": samples[:width]}).values()))
            assert rows.shape[0] == width
            np.testing.assert_allclose(rows, wide[:width], atol=1e-6)
        assert [worker.by_width[w].robustness_report().runs
                for w in (1, 2, 4)] == [1, 1, 1]

    def test_a_width_that_is_no_bucket_is_an_execution_error(self):
        pool = SessionPool(tiny_classifier(batch=4), workers=1, batch=4)
        with pytest.raises(ExecutionError, match="expected shape"):
            pool.session("orpheus", 0).run(
                {"input": np.zeros((3, 3, 8, 8), dtype=np.float32)})

    def test_a_baked_batch_keeps_one_bucket_and_still_serves(self):
        pool = SessionPool(baked_batch_classifier(), workers=1, batch=4)
        assert pool.buckets == (4,)
        with InferenceService(pool=pool) as service:
            outcome = service.submit(
                np.ones((3, 8, 8), dtype=np.float32)).result(timeout=10.0)
            stats = service.stats()
        assert outcome.ok and outcome.output.shape == (3,)
        # padded to the only plan there is, as before buckets existed
        assert stats.runs_by_width == {4: 1}
        assert stats.padded_rows == 3

    def test_memory_budget_admits_every_plan_or_none(self):
        # The pool batch is a promise: a budget the batch-1 plan fits but
        # the batch-4 plan does not is refused at build, not at the first
        # full batch.
        pool = SessionPool(tiny_classifier(batch=4), workers=1, batch=4)
        peaks = {width: session.memory_plan.peak_bytes for width, session
                 in pool.session("orpheus", 0).by_width.items()}
        assert peaks[1] < peaks[4]
        with pytest.raises(MemoryBudgetError):
            SessionPool(
                tiny_classifier(batch=4), workers=1, batch=4,
                session_kwargs={
                    "memory_budget_bytes": (peaks[1] + peaks[4]) // 2})


class TestFaultPlans:
    def test_a_workers_buckets_share_its_one_fault_plan(self):
        pool = SessionPool(
            tiny_classifier(batch=4), workers=2, batch=4,
            fault_spec="raise:op=Conv:max=2", fault_seed=7)
        first, second = (pool.session("orpheus", w) for w in (0, 1))
        plans = {id(s._executor.config.fault_plan)
                 for s in first.by_width.values()}
        assert len(plans) == 1
        assert id(second._executor.config.fault_plan) not in plans
        for width in (1, 4, 2):
            first.run({"input": np.zeros((width, 3, 8, 8), dtype=np.float32)})
        reports = [s.robustness_report() for s in first.by_width.values()]
        assert sum(r.runs for r in reports) == 3    # every width, once each
        assert sum(len(r.fallback_events) for r in reports) == 2
        plan = first._executor.config.fault_plan
        assert len(plan.events) == 2                # one plan's, not 3 copies

    def test_each_worker_gets_its_own_seeded_plan(self):
        pool = SessionPool(
            tiny_classifier(), backends=("orpheus",), workers=2, batch=1,
            fault_spec="raise:op=Conv:max=1", fault_seed=7)
        plans = [pool.session("orpheus", w)._executor.config.fault_plan
                 for w in range(pool.workers)]
        assert plans[0] is not None
        assert plans[0] is not plans[1]  # stateful RNGs must not be shared

    def test_fault_spec_only_applies_to_named_backend(self):
        # The spec names no backend: it faults the one named first, as a
        # process worker's does, and leaves the fallback chain clean.
        pool = SessionPool(
            tiny_classifier(), backends=("orpheus", "direct"), workers=1,
            fault_spec="raise:op=Conv:max=1")
        primary = pool.session("orpheus", 0)
        fallback = pool.session("direct", 0)
        assert primary._executor.config.fault_plan is not None
        assert fallback._executor.config.fault_plan is None
