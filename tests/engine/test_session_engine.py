"""Session-level engine semantics: strict loads, hints, budgets, caching.

``from_engine`` and the ``engine=`` hint make opposite promises — the
first raises on anything unusable, the second warns and cold-prepares —
and both must hold under every failure mode: corrupt files, stale
fingerprints, frozen kernels that no longer resolve, and memory budgets
the engine's own plan cannot satisfy.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine import compile_to_file
from repro.engine.cache import EngineCache
from repro.engine.format import load_engine
from repro.errors import EngineError, EngineFallbackWarning, MemoryBudgetError
from repro.runtime.session import InferenceSession
from tests.conftest import tiny_classifier


@pytest.fixture
def engine_path(tmp_path):
    path = tmp_path / "tiny.oeng"
    compile_to_file(tiny_classifier(), path, backend="orpheus", threads=1)
    return path


def _feed(session):
    rng = np.random.default_rng(7)
    shape = tuple(session.graph.inputs[0].shape)
    return {"input": rng.standard_normal(shape).astype(np.float32)}


# -- strict loads --------------------------------------------------------------


class TestFromEngineStrict:
    def test_adopts_compile_time_knobs(self, engine_path):
        session = InferenceSession.from_engine(engine_path)
        assert session.loaded_engine is not None
        assert session.backend.name == "orpheus"
        assert session.config.threads == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(EngineError):
            InferenceSession.from_engine(tmp_path / "absent.oeng")

    def test_corrupt_file_raises(self, engine_path):
        data = bytearray(engine_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        engine_path.write_bytes(bytes(data))
        with pytest.raises(EngineError, match="checksum"):
            InferenceSession.from_engine(engine_path)

    def test_backend_disagreement_raises(self, engine_path):
        """Asserting a different backend is an error, never a re-prepare."""
        with pytest.raises(EngineError):
            InferenceSession.from_engine(engine_path, backend="direct")

    def test_thread_disagreement_raises(self, engine_path):
        with pytest.raises(EngineError):
            InferenceSession.from_engine(engine_path, threads=4)

    def test_unresolvable_frozen_kernel_raises(self, engine_path):
        """An engine whose frozen kernels vanished is stale, not runnable."""
        engine = load_engine(engine_path)
        node = engine.schedule[0]
        stale = dataclasses.replace(
            engine,
            kernel_plan={**engine.kernel_plan, node: "kernel_from_the_future"},
            fallback_plan={**engine.fallback_plan,
                           node: ("kernel_from_the_future",)})
        with pytest.raises(EngineError):
            InferenceSession.from_engine(stale)

    @staticmethod
    def _with_deleted_kernel(engine, position):
        """``engine`` as if compiled while its first Conv's chain also named
        a kernel that has since been deleted (every engine built before the
        Conv fft impl went names it as a fallback)."""
        conv = next(node.name for node in engine.graph.nodes
                    if node.op_type == "Conv")
        chain = list(engine.fallback_plan[conv])
        chain.insert(position, "a_deleted_kernel")
        return conv, dataclasses.replace(
            engine,
            kernel_plan={**engine.kernel_plan, conv: chain[0]},
            fallback_plan={**engine.fallback_plan, conv: tuple(chain)})

    def test_lost_fallback_shortens_the_chain(self, engine_path):
        engine = load_engine(engine_path)
        conv, aged = self._with_deleted_kernel(engine, position=1)
        fresh = InferenceSession.from_engine(engine)
        loaded = InferenceSession.from_engine(aged)
        assert (len(loaded.fallback_plan()[conv])
                == len(aged.fallback_plan[conv]) - 1)
        assert loaded.fallback_plan() == fresh.fallback_plan()
        feed = _feed(fresh)
        for name, expected in fresh.run(feed).items():
            np.testing.assert_array_equal(loaded.run(feed)[name], expected)

    def test_lost_primary_is_a_stale_engine(self, engine_path):
        _, aged = self._with_deleted_kernel(
            load_engine(engine_path), position=0)
        with pytest.raises(EngineError, match="stale engine"):
            InferenceSession.from_engine(aged)

    def test_budget_admission_runs_on_warm_load(self, engine_path):
        """A warm start must not smuggle an over-budget plan past admission."""
        with pytest.raises(MemoryBudgetError):
            InferenceSession.from_engine(engine_path, memory_budget_bytes=1)

    def test_fits_generous_budget(self, engine_path):
        session = InferenceSession.from_engine(
            engine_path, memory_budget_bytes=1 << 30)
        assert session.memory_admission.budget_bytes == 1 << 30
        assert session.output_names[0] in session.run(_feed(session))


# -- best-effort hints ---------------------------------------------------------


class TestEngineHint:
    def test_match_loads_warm(self, engine_path):
        session = InferenceSession(
            tiny_classifier(), backend="orpheus", threads=1,
            engine=engine_path)
        assert session.loaded_engine is not None

    def test_missing_file_warns_and_cold_prepares(self, tmp_path):
        with pytest.warns(EngineFallbackWarning, match="falling back"):
            session = InferenceSession(
                tiny_classifier(), backend="orpheus", threads=1,
                engine=tmp_path / "absent.oeng")
        assert session.loaded_engine is None
        assert session.output_names[0] in session.run(_feed(session))

    def test_corrupt_file_warns_with_source_and_reason(self, engine_path):
        data = bytearray(engine_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        engine_path.write_bytes(bytes(data))
        with pytest.warns(EngineFallbackWarning) as caught:
            session = InferenceSession(
                tiny_classifier(), backend="orpheus", threads=1,
                engine=engine_path)
        message = str(caught[0].message)
        assert str(engine_path) in message
        assert "checksum" in message
        assert session.loaded_engine is None
        assert session.output_names[0] in session.run(_feed(session))

    def test_different_source_graph_warns(self, engine_path):
        """An engine for another model must not silently replace this one."""
        other = tiny_classifier(seed=1, image=16, channels=8)
        with pytest.warns(EngineFallbackWarning):
            session = InferenceSession(
                other, backend="orpheus", threads=1, engine=engine_path)
        assert session.loaded_engine is None
        assert session.graph.inputs[0].shape[-1] == 16  # kept its own graph

    def test_config_mismatch_warns(self, engine_path):
        with pytest.warns(EngineFallbackWarning):
            session = InferenceSession(
                tiny_classifier(), backend="orpheus", threads=2,
                engine=engine_path)
        assert session.loaded_engine is None

    def test_budget_error_is_never_swallowed_into_fallback(self, engine_path):
        """EngineError degrades to a warning; MemoryBudgetError must not."""
        with pytest.raises(MemoryBudgetError):
            InferenceSession(
                tiny_classifier(), backend="orpheus", threads=1,
                engine=engine_path, memory_budget_bytes=1)


# -- the engine directory cache ------------------------------------------------


class TestEngineCacheSession:
    def test_miss_populates_then_hits(self, tmp_path):
        cache = EngineCache(tmp_path / "engines")
        first, hit = cache.session(
            tiny_classifier(), model="tiny", backend="orpheus")
        assert not hit
        assert len(cache.entries()) == 1
        second, hit = cache.session(
            tiny_classifier(), model="tiny", backend="orpheus")
        assert hit
        assert second.loaded_engine is not None
        feed = _feed(first)
        out = first.output_names[0]
        np.testing.assert_array_equal(
            first.run(feed)[out], second.run(feed)[out])

    def test_request_knobs_partition_entries(self, tmp_path):
        cache = EngineCache(tmp_path / "engines")
        cache.session(tiny_classifier(), model="tiny", backend="orpheus")
        _, hit = cache.session(
            tiny_classifier(), model="tiny", backend="orpheus", threads=2)
        assert not hit
        assert len(cache.entries()) == 2

    def test_corrupt_entry_degrades_and_heals(self, tmp_path):
        cache = EngineCache(tmp_path / "engines")
        cache.session(tiny_classifier(), model="tiny", backend="orpheus")
        (name,) = cache.entries()
        victim = tmp_path / "engines" / name
        victim.write_bytes(b"garbage")
        with pytest.warns(EngineFallbackWarning):
            session, hit = cache.session(
                tiny_classifier(), model="tiny", backend="orpheus")
        assert not hit
        assert session.output_names[0] in session.run(_feed(session))
        # the miss re-froze a valid engine over the corpse
        _, hit = cache.session(
            tiny_classifier(), model="tiny", backend="orpheus")
        assert hit
