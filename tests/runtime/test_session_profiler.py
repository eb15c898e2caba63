"""InferenceSession and the per-layer profiler."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.config import RuntimeConfig
from repro.runtime.session import InferenceSession
from tests.conftest import tiny_classifier


@pytest.fixture
def session():
    return InferenceSession(tiny_classifier(), backend="orpheus", threads=1)


@pytest.fixture
def feed(rng):
    return {"input": rng.standard_normal((1, 3, 8, 8)).astype(np.float32)}


class TestSession:
    def test_run_returns_named_outputs(self, session, feed):
        outputs = session.run(feed)
        assert list(outputs) == session.output_names
        assert outputs[session.output_names[0]].shape == (1, 3)

    def test_optimization_preserves_output_names(self):
        graph = tiny_classifier()
        optimized = InferenceSession(graph, optimize=True)
        plain = InferenceSession(graph, optimize=False)
        assert optimized.output_names == plain.output_names

    def test_optimize_flag_changes_node_count(self):
        graph = tiny_classifier()
        optimized = InferenceSession(graph, optimize=True)
        plain = InferenceSession(graph, optimize=False)
        assert len(optimized.graph.nodes) < len(plain.graph.nodes)

    def test_source_graph_not_mutated(self):
        graph = tiny_classifier()
        count = len(graph.nodes)
        InferenceSession(graph, optimize=True)
        assert len(graph.nodes) == count

    def test_backend_by_instance(self, feed):
        backend = get_backend("direct")
        session = InferenceSession(tiny_classifier(), backend=backend)
        session.run(feed)
        assert session.backend.name == "direct"

    def test_same_results_across_backends(self, feed):
        graph = tiny_classifier(seed=5)
        results = {}
        for name in ("orpheus", "direct", "spatial_pack", "winograd"):
            results[name] = InferenceSession(graph, backend=name).run(feed)
        base = results["orpheus"]
        for name, outputs in results.items():
            for key in base:
                np.testing.assert_allclose(
                    outputs[key], base[key], rtol=1e-3, atol=1e-5,
                    err_msg=f"backend {name} diverges")

    def test_config_object_respected(self, feed):
        config = RuntimeConfig(threads=1, validate_kernels=True)
        session = InferenceSession(tiny_classifier(), config=config)
        session.run(feed)

    def test_default_config_context(self, feed):
        session = InferenceSession(
            tiny_classifier(), config=RuntimeConfig(optimize=False))
        assert len(session.graph.nodes) == len(tiny_classifier().nodes)

    def test_time_returns_positive_samples(self, session, feed):
        times = session.time(feed, repeats=3, warmup=1)
        assert len(times) == 3
        assert all(t > 0 for t in times)

    def test_memory_plan_exposed(self, session):
        assert session.memory_plan.peak_bytes > 0


class TestProfiler:
    def test_profile_covers_all_nodes(self, session, feed):
        profile = session.profile(feed, repeats=3)
        assert len(profile.layers) == len(session.graph.nodes)
        assert profile.repeats == 3

    def test_statistics_consistent(self, session, feed):
        profile = session.profile(feed, repeats=5)
        for layer in profile.layers:
            assert layer.best <= layer.median <= max(layer.times)

    def test_by_op_type_sums_to_total(self, session, feed):
        profile = session.profile(feed, repeats=3)
        assert sum(profile.by_op_type().values()) == pytest.approx(
            profile.total_median, rel=1e-9)

    def test_by_impl_keys(self, session, feed):
        profile = session.profile(feed, repeats=2)
        assert any(key.startswith("Conv:") for key in profile.by_impl())

    def test_hottest_sorted_descending(self, session, feed):
        profile = session.profile(feed, repeats=2)
        hottest = profile.hottest(3)
        assert all(a.median >= b.median for a, b in zip(hottest, hottest[1:]))

    def test_table_renders(self, session, feed):
        text = session.profile(feed, repeats=2).table()
        assert "median(ms)" in text
        assert "total" in text

    def test_collate_rejects_mismatched_runs(self, session, feed):
        from repro.runtime.profiler import collate
        _, run1 = session._executor.run(feed, collect_timings=True)
        other = InferenceSession(tiny_classifier(seed=9))
        _, run2 = other._executor.run(feed, collect_timings=True)
        with pytest.raises(ValueError, match="different schedules"):
            collate([run1, run2])

    def test_collate_requires_runs(self):
        from repro.runtime.profiler import collate
        with pytest.raises(ValueError, match="at least one"):
            collate([])


class TestSharedStatistics:
    """One statistics vocabulary (`repro.runtime.profiler.Samples`) for
    every record type that carries a ``times`` tuple."""

    @staticmethod
    def _makers():
        from repro.bench.harness import RunStats
        from repro.bench.sweeps import SweepPoint
        from repro.frameworks.base import Measurement
        from repro.runtime.profiler import LayerProfile
        return [
            lambda times: LayerProfile("node", "Conv", "im2col", times),
            lambda times: RunStats("label", times),
            lambda times: SweepPoint("model", 1, 8, times),
            lambda times: Measurement("framework", "model", times),
        ]

    def test_statistics_agree_with_stdlib_for_every_record_type(self):
        import statistics

        from hypothesis import given
        from hypothesis import strategies as st

        @given(st.lists(st.floats(min_value=0.0, max_value=1e3),
                        min_size=1, max_size=9).map(tuple))
        def check(times):
            for make in self._makers():
                record = make(times)
                assert record.median == statistics.median(times)
                assert record.mean == statistics.fmean(times)
                assert record.best == min(times)
                assert record.stdev == (
                    statistics.stdev(times) if len(times) > 1 else 0.0)

        check()

    def test_empty_sample_rejected_by_every_record_type(self):
        for make in self._makers():
            with pytest.raises(ValueError, match="at least one"):
                make(())
