"""SessionAdapter / SessionModel plumbing and the dispatch-overhead model."""

import numpy as np
import pytest

from repro.backends import Backend
from repro.frameworks.base import Measurement
from repro.frameworks.session_adapter import SessionAdapter, SessionModel


@pytest.fixture
def adapter():
    return SessionAdapter(
        name="plain-test",
        display_name="Plain",
        backend=Backend(name="plain-test-backend"),
    )


class TestSessionModel:
    def test_run_returns_output_tensor(self, adapter, rng):
        prepared = adapter.prepare("wrn-40-2", image_size=16)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        out = prepared.run(x)
        assert out.shape == (1, 10)

    def test_time_returns_repeats_samples(self, adapter, rng):
        prepared = adapter.prepare("wrn-40-2", image_size=16)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        times = prepared.time(x, repeats=4, warmup=1)
        assert len(times) == 4
        assert all(t > 0 for t in times)

    def test_overhead_added_to_every_sample(self):
        class ScriptedSession:
            def time(self, feeds, repeats, warmup):
                assert list(feeds) == ["input"] and (repeats, warmup) == (3, 1)
                return [0.25, 0.5, 1.0]

        x = np.zeros((1, 3, 16, 16), dtype=np.float32)
        assert SessionModel(ScriptedSession()).time(
            x, repeats=3, warmup=1) == [0.25, 0.5, 1.0]
        slowed = SessionModel(ScriptedSession(), per_run_overhead_s=0.05)
        assert slowed.time(x, repeats=3, warmup=1) == \
            [t + 0.05 for t in (0.25, 0.5, 1.0)]

    def test_image_size_override_flows_to_graph(self, adapter):
        prepared = adapter.prepare("wrn-40-2", image_size=16)
        assert prepared.session.graph.inputs[0].shape == (1, 3, 16, 16)


class TestMeasurementStats:
    def test_median_and_best(self):
        m = Measurement("f", "m", (0.3, 0.1, 0.2))
        assert m.median == pytest.approx(0.2)
        assert m.best == pytest.approx(0.1)

    def test_repr_mentions_ms(self):
        m = Measurement("orpheus", "wrn-40-2", (0.02,))
        assert "orpheus/wrn-40-2" in repr(m)


class TestPytorchOverheadModel:
    def test_overhead_scales_with_node_count(self):
        from repro.frameworks import get_adapter
        adapter = get_adapter("pytorch")
        small = adapter.prepare("wrn-40-2", image_size=16)
        big = adapter.prepare("inception-v3", image_size=128)
        assert big.per_run_overhead_s > small.per_run_overhead_s
        nodes = len(big.session.graph.nodes)
        assert big.per_run_overhead_s == pytest.approx(40e-6 * nodes)
