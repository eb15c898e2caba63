"""Session-level engine semantics: strict loads, budgets, caching.

``from_engine`` and ``EngineCache`` make opposite promises — the first
raises on anything unusable, the second warns and recompiles — and both
must hold under every failure mode: corrupt files, stale fingerprints,
engines compiled from another model, frozen kernels that no longer
resolve, and memory budgets the engine's own plan cannot satisfy.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.engine import compile_to_file
from repro.engine.cache import EngineCache, _FileLock
from repro.engine.format import load_engine, save_engine
from repro.errors import EngineError, EngineFallbackWarning, MemoryBudgetError
from repro.runtime.session import InferenceSession
from tests.conftest import tiny_classifier

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


@pytest.fixture
def engine_path(tmp_path):
    path = tmp_path / "tiny.oeng"
    compile_to_file(tiny_classifier(), path, backend="orpheus", threads=1)
    return path


def _entries(cache):
    return sorted(n for n in os.listdir(cache.directory) if n.endswith(".oeng"))


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
        data[-5] ^= 0xFF    # the last weight byte: only the crc sees it
        engine_path.write_bytes(bytes(data))
        with pytest.raises(EngineError, match="checksum"):
            InferenceSession.from_engine(engine_path)

    def test_backend_disagreement_raises(self, engine_path):
        """Asserting a different backend is an error, never a re-prepare."""
        with pytest.raises(EngineError):
            InferenceSession.from_engine(engine_path, backend="direct")

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

    def test_two_thread_engine_is_stale(self, engine_path):
        """An engine whose fingerprint records ``threads: 2`` (older
        builds could make one) is an EngineError, not a ValueError."""
        engine = load_engine(engine_path)
        aged = dataclasses.replace(
            engine, fingerprint={**engine.fingerprint, "threads": 2})
        with pytest.raises(EngineError, match="threads"):
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


# -- the engine directory cache ------------------------------------------------


class TestEngineCacheSession:
    def test_miss_populates_then_hits(self, tmp_path):
        cache = EngineCache(tmp_path / "engines")
        first, hit = cache.session(
            tiny_classifier(), model="tiny", backend="orpheus")
        assert not hit
        assert len(_entries(cache)) == 1
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
            tiny_classifier(), model="tiny", backend="orpheus", optimize=False)
        assert not hit
        assert len(_entries(cache)) == 2

    def test_corrupt_entry_degrades_and_heals(self, tmp_path):
        cache = EngineCache(tmp_path / "engines")
        cache.session(tiny_classifier(), model="tiny", backend="orpheus")
        (name,) = _entries(cache)
        victim = tmp_path / "engines" / name
        victim.write_bytes(b"garbage")
        with pytest.warns(EngineFallbackWarning) as caught:
            session, hit = cache.session(
                tiny_classifier(), model="tiny", backend="orpheus")
        assert not hit
        (warning,) = caught
        assert str(victim) in str(warning.message)    # which artifact
        assert warning.message.reason                  # and why
        assert session.output_names[0] in session.run(_feed(session))
        # the miss re-froze a valid engine over the corpse
        _, hit = cache.session(
            tiny_classifier(), model="tiny", backend="orpheus")
        assert hit

    def test_entry_from_another_model_recompiles(self, tmp_path):
        """A file compiled from another model under this request's key is
        caught by the source digest, never served."""
        cache = EngineCache(tmp_path / "engines")
        entry = cache.entry(model="tiny", backend="orpheus",
                            optimize=True, batch=1, image_size=None, seed=0)
        os.makedirs(cache.directory)
        compile_to_file(tiny_classifier(seed=1, image=16, channels=8),
                        entry.path, backend="orpheus", threads=1)
        with pytest.warns(EngineFallbackWarning, match="model mismatch"):
            session, hit = cache.session(
                tiny_classifier(), model="tiny", backend="orpheus")
        assert not hit
        cold = InferenceSession(tiny_classifier(), backend="orpheus")
        feed = _feed(cold)
        for name, expected in cold.run(feed).items():
            assert session.run(feed)[name].tobytes() == expected.tobytes()
        _, hit = cache.session(
            tiny_classifier(), model="tiny", backend="orpheus")
        assert hit

    def test_two_thread_entry_recompiles(self, tmp_path):
        """A cached engine whose fingerprint records ``threads: 2`` is a
        miss: it warns, recompiles, and the re-frozen entry then hits."""
        cache = EngineCache(tmp_path / "engines")
        engine, _ = cache.load_or_compile(
            tiny_classifier(), model="tiny", backend="orpheus")
        (name,) = _entries(cache)
        save_engine(dataclasses.replace(
            engine, fingerprint={**engine.fingerprint, "threads": 2}),
            tmp_path / "engines" / name)
        with pytest.warns(EngineFallbackWarning, match="threads"):
            fresh, hit = cache.load_or_compile(
                tiny_classifier(), model="tiny", backend="orpheus")
        assert not hit
        assert fresh.fingerprint["threads"] == 1
        _, hit = cache.load_or_compile(
            tiny_classifier(), model="tiny", backend="orpheus")
        assert hit

    def test_budget_error_on_miss_and_hit(self, tmp_path):
        """A cache never turns MemoryBudgetError into a fallback."""
        cache = EngineCache(tmp_path / "engines")
        for _ in ("miss", "hit"):
            with pytest.raises(MemoryBudgetError):
                cache.session(tiny_classifier(), model="tiny",
                              backend="orpheus", memory_budget_bytes=1)
        _, hit = cache.load_or_compile(
            tiny_classifier(), model="tiny", backend="orpheus")
        assert hit


# -- the cross-process compile-once lock ----------------------------------------


class TestFileLock:
    def test_lock_contention_proceeds_after_timeout(self, tmp_path):
        path = str(tmp_path / "entry.oeng")
        with _FileLock(path):
            # A second compiler with a tiny budget gives up on the lock but
            # still proceeds — a redundant compile beats a deadlock.
            contender = _FileLock(path, timeout_s=0.05)
            with contender:
                assert contender._fd is None

    def test_killed_holder_releases_the_lock(self, tmp_path):
        """A compiler SIGKILLed inside the lock leaves its lock file
        behind, but not the lock: the next taker holds it at once."""
        path = str(tmp_path / "entry.oeng")
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import sys, time\n"
             "from repro.engine.cache import _FileLock\n"
             "_FileLock(sys.argv[1]).__enter__()\n"
             "print('held', flush=True)\n"
             "time.sleep(600)\n",
             path],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": _SRC})
        try:
            assert holder.stdout.readline().strip() == "held"
            with _FileLock(path, timeout_s=0.05) as contender:
                assert contender._fd is None    # the holder really holds it
        finally:
            holder.kill()
            holder.wait()
            holder.stdout.close()
        assert os.path.exists(path + ".lock")
        # The dead holder's lock must be free now, not merely outwaited:
        # a taker that times out proceeds unlocked, with _fd None.
        with _FileLock(path, timeout_s=2.0) as lock:
            assert lock._fd is not None
