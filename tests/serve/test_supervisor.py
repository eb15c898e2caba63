"""WorkerSupervisor tests against real child processes (@loopback model).

These spawn genuine interpreters, so every supervisor is torn down
promptly and restarts back off briefly; each test stays well under a
second of steady-state time plus spawn cost. Supervisor policy is module
constants, set per test with ``monkeypatch``; the heartbeat interval is
read by the child process, so it stays at its real 0.05 s.
"""

import time

import numpy as np
import pytest

from repro.errors import PoisonRequestError, WorkerCrashError
from repro.serve import supervisor as supervisor_mod
from repro.serve.supervisor import ProcessWorkerPool, WorkerSupervisor

pytestmark = pytest.mark.slow


@pytest.fixture(autouse=True)
def quick_policy(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "BACKOFF_BASE_S", 0.01)
    monkeypatch.setattr(supervisor_mod, "BACKOFF_CAP_S", 0.05)
    monkeypatch.setattr(supervisor_mod, "SPAWN_TIMEOUT_S", 60.0)


def make_supervisor(**overrides):
    kwargs = dict(workers=1, batch=1, heartbeat_timeout_s=1.0)
    kwargs.update(overrides)
    return WorkerSupervisor("@loopback", **kwargs)


def feeds_for(value=1.0, batch=1):
    return {"input": np.full((batch, 4), value, dtype=np.float32)}


def await_alive(supervisor, count, timeout_s=15.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if supervisor.alive_workers() >= count:
            return True
        time.sleep(0.01)
    return False


class TestRoundTrip:
    def test_run_doubles_values_through_the_pipe(self):
        with make_supervisor() as supervisor:
            out = supervisor.run(0, "orpheus", feeds_for(3.0))
            np.testing.assert_allclose(
                out["out"], np.full((1, 4), 6.0, dtype=np.float32))

    def test_hello_surfaces_model_metadata(self):
        with make_supervisor() as supervisor:
            assert supervisor.input_name == "input"
            assert supervisor.sample_shape == (4,)

    def test_sequential_runs_reuse_the_same_process(self):
        with make_supervisor() as supervisor:
            pid_before = supervisor.stats().slots[0].pid
            for value in (1.0, 2.0, 3.0):
                out = supervisor.run(0, "orpheus", feeds_for(value))
                assert out["out"][0, 0] == 2.0 * value
            assert supervisor.stats().slots[0].pid == pid_before
            assert supervisor.stats().restarts == 0

    def test_unknown_backend_is_a_structured_error_not_a_death(self):
        with make_supervisor() as supervisor:
            with pytest.raises(Exception) as info:
                supervisor.run(0, "no-such-backend", feeds_for())
            assert "no-such-backend" in str(info.value)
            # The worker survived the bad request.
            out = supervisor.run(0, "orpheus", feeds_for(1.0))
            assert out["out"][0, 0] == 2.0

    def test_graph_objects_are_rejected(self):
        with pytest.raises(ValueError, match="model name"):
            WorkerSupervisor(object())


class TestCrashContainment:
    def test_kill_restarts_and_records_the_death(self):
        with make_supervisor() as supervisor:
            pid = supervisor.kill_worker(0)
            assert pid is not None
            assert await_alive(supervisor, 1)
            stats = supervisor.stats()
            assert stats.restarts >= 1
            assert stats.deaths.get("killed", 0) >= 1
            out = supervisor.run(0, "orpheus", feeds_for(5.0))
            assert out["out"][0, 0] == 10.0

    def test_crash_fault_fails_inflight_structurally(self):
        with make_supervisor(fault_spec="crash:node=boom-*") as supervisor:
            with pytest.raises(WorkerCrashError) as info:
                supervisor.run(0, "orpheus", feeds_for(),
                               request_ids=("boom-1",))
            assert info.value.reason == "crashed"
            assert "boom-1" in str(info.value)
            # The slot comes back and serves innocent traffic.
            assert await_alive(supervisor, 1)
            out = supervisor.run(0, "orpheus", feeds_for(1.0),
                                 request_ids=("fine-1",))
            assert out["out"][0, 0] == 2.0

    def test_run_while_restarting_is_structural(self, monkeypatch):
        monkeypatch.setattr(supervisor_mod, "BACKOFF_BASE_S", 0.5)
        monkeypatch.setattr(supervisor_mod, "BACKOFF_CAP_S", 0.5)
        with make_supervisor() as supervisor:
            supervisor.kill_worker(0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    supervisor.run(0, "orpheus", feeds_for())
                except WorkerCrashError as exc:
                    # Depending on who notices first this surfaces as a
                    # state rejection or a broken pipe — both structural.
                    assert exc.reason in (
                        "restarting", "starting", "killed", "exited",
                        "pipe-broken")
                    break
                time.sleep(0.005)
            else:
                pytest.fail("death was never observable from run()")

    def test_hang_is_detected_by_heartbeat_loss(self):
        with make_supervisor(fault_spec="hang:node=hang-*:max=1",
                             heartbeat_timeout_s=0.3,
                             request_timeout_s=8.0) as supervisor:
            with pytest.raises(WorkerCrashError):
                supervisor.run(0, "orpheus", feeds_for(),
                               request_ids=("hang-1",))
            deaths = supervisor.stats().deaths
            assert deaths.get("heartbeat-lost", 0) \
                + deaths.get("request-timeout", 0) >= 1
            assert await_alive(supervisor, 1)

    def test_restart_storm_disables_the_slot(self, monkeypatch):
        monkeypatch.setattr(supervisor_mod, "QUARANTINE_THRESHOLD", 10)
        monkeypatch.setattr(supervisor_mod, "RESTART_BUDGET", 2)
        monkeypatch.setattr(supervisor_mod, "RESTART_WINDOW_S", 60.0)
        with make_supervisor(fault_spec="crash:node=kill-*") as supervisor:
            for attempt in range(3):
                assert await_alive(supervisor, 1)
                with pytest.raises(WorkerCrashError):
                    supervisor.run(0, "orpheus", feeds_for(),
                                   request_ids=(f"kill-{attempt}",))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if supervisor.stats().disabled == 1:
                    break
                time.sleep(0.01)
            stats = supervisor.stats()
            assert stats.disabled == 1
            assert stats.restarts == 2
            with pytest.raises(WorkerCrashError) as info:
                supervisor.run(0, "orpheus", feeds_for())
            assert info.value.reason == "disabled"


class TestQuarantine:
    def test_poison_request_quarantined_within_threshold(self):
        assert supervisor_mod.QUARANTINE_THRESHOLD == 2
        with make_supervisor(fault_spec="crash:node=poison-*") as supervisor:
            deaths = 0
            for _ in range(2):
                with pytest.raises(WorkerCrashError):
                    supervisor.run(0, "orpheus", feeds_for(),
                                   request_ids=("poison-1",))
                deaths += 1
                assert await_alive(supervisor, 1)
            # Exactly threshold deaths, then refusal without a dispatch.
            with pytest.raises(PoisonRequestError) as info:
                supervisor.run(0, "orpheus", feeds_for(),
                               request_ids=("poison-1",))
            assert deaths == 2
            assert info.value.request_ids == ("poison-1",)
            assert "poison-1" in supervisor.stats().quarantined
            assert supervisor.quarantined(["poison-1", "x"]) == {"poison-1"}
            # Innocent traffic is unaffected.
            out = supervisor.run(0, "orpheus", feeds_for(2.0),
                                 request_ids=("innocent-1",))
            assert out["out"][0, 0] == 4.0


class TestLifecycle:
    def test_close_is_idempotent_and_run_after_close_is_structural(self):
        supervisor = make_supervisor()
        supervisor.close()
        supervisor.close()
        with pytest.raises(WorkerCrashError) as info:
            supervisor.run(0, "orpheus", feeds_for())
        assert info.value.reason == "closed"

    def test_kill_worker_on_dead_process_returns_none(self, monkeypatch):
        monkeypatch.setattr(supervisor_mod, "BACKOFF_BASE_S", 1.0)
        monkeypatch.setattr(supervisor_mod, "BACKOFF_CAP_S", 1.0)
        with make_supervisor() as supervisor:
            assert supervisor.kill_worker(0) is not None
            assert supervisor.kill_worker(0) is None

    def test_init_failure_raises_instead_of_hanging(self):
        with pytest.raises(WorkerCrashError) as info:
            WorkerSupervisor("definitely-not-a-model", workers=1)
        assert info.value.reason == "init-failed"


class TestPoolFacade:
    def test_process_pool_quacks_like_session_pool(self):
        with make_supervisor(workers=2) as supervisor:
            pool = ProcessWorkerPool(supervisor)
            assert pool.workers == 2
            assert pool.input_name == "input"
            assert pool.sample_shape == (4,)
            assert pool.model_name == "@loopback"
            sessions = [pool.session("orpheus", w)
                        for w in range(pool.workers)]
            assert pool.session("orpheus", 0) is sessions[0]
            assert sessions[0].accepts_request_ids
            out = sessions[1].run(feeds_for(3.0))
            assert out["out"][0, 0] == 6.0


class TestBuckets:
    def test_process_pool_states_the_thread_pools_buckets(self, monkeypatch):
        """Both pool kinds derive the same plans for the same model, and a
        lone request crosses the pipe as one row, not a padded four."""
        from repro.serve.pool import SessionPool
        from repro.serve.service import InferenceService

        knobs = dict(backends=("orpheus",), workers=1, batch=4, image_size=8)
        framed = []
        pack = supervisor_mod.pack_arrays

        def recording_pack(arrays):
            framed.append({k: v.shape for k, v in arrays.items()})
            return pack(arrays)

        monkeypatch.setattr(supervisor_mod, "pack_arrays", recording_pack)
        with WorkerSupervisor("wrn-40-2", **knobs) as supervisor:
            pool = ProcessWorkerPool(supervisor)
            assert pool.buckets == SessionPool("wrn-40-2", **knobs).buckets \
                == (1, 2, 4)
            with InferenceService(pool=pool) as service:
                outcome = service.submit(
                    np.zeros((3, 8, 8), dtype=np.float32)).result(timeout=30.0)
                assert service.health()["buckets"] == [1, 2, 4]
        assert outcome.ok
        assert framed == [{"input": (1, 3, 8, 8)}]

    def test_loopback_workers_state_every_bucket(self):
        with make_supervisor(batch=6) as supervisor:
            assert supervisor.buckets == (1, 2, 4, 6)


class TestEngineCachePath:
    """Both pool kinds take the cache as ``str | os.PathLike | EngineCache``."""

    @staticmethod
    def _start(kind, cache_dir):
        """Start one pool of ``kind`` on the cache; return its engine hits."""
        from repro.serve.pool import SessionPool
        knobs = dict(backends=("orpheus",), workers=1, batch=1, image_size=8,
                     engine_cache=cache_dir)
        if kind == "thread":
            return SessionPool("wrn-40-2", **knobs).engine_hits
        with WorkerSupervisor("wrn-40-2", **knobs) as supervisor:
            return dict(supervisor.engine_hits)

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_pathlib_cache_is_written_then_hit(self, kind, tmp_path):
        cache_dir = tmp_path / "engines"         # a Path, not a str
        assert self._start(kind, cache_dir) == {"orpheus": False}
        assert len(list(cache_dir.glob("*.oeng"))) == 1
        assert self._start(kind, cache_dir) == {"orpheus": True}
        assert len(list(cache_dir.glob("*.oeng"))) == 1

    def test_a_cache_object_is_itself_and_a_path_is_its_directory(
            self, tmp_path):
        from repro.engine.cache import EngineCache
        cache = EngineCache(tmp_path)
        assert EngineCache.coerce(cache) is cache
        assert EngineCache.coerce(tmp_path).directory == str(tmp_path)

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_anything_else_is_a_type_error_not_an_absent_cache(self, kind):
        with pytest.raises(TypeError):
            self._start(kind, 5)
