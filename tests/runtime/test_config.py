"""RuntimeConfig: defaults, validation, replace."""

import dataclasses

import pytest

from repro.config import RuntimeConfig
from repro.engine import compile_graph
from repro.runtime.session import InferenceSession
from repro.serve import supervisor as supervisor_mod
from repro.serve.pool import SessionPool
from repro.serve.supervisor import WorkerSupervisor
from tests.conftest import tiny_classifier


class TestRuntimeConfig:
    def test_defaults_match_paper_setting(self):
        config = RuntimeConfig()
        assert config.threads == 1
        assert config.optimize
        assert not config.validate_kernels

    def test_fields_are_the_sessions_knobs_and_no_deadline(self):
        # A run's deadline is an argument of each call, never config.
        assert [f.name for f in dataclasses.fields(RuntimeConfig)] == [
            "threads", "optimize", "validate_kernels", "kernel_fallback",
            "check_numerics", "fault_plan", "memory_budget_bytes"]

    def test_replace_creates_new_object(self):
        base = RuntimeConfig()
        changed = base.replace(optimize=False)
        assert not changed.optimize
        assert base.optimize

    def test_invalid_threads_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="threads"):
            RuntimeConfig(threads=0)
        with pytest.raises(ValueError):
            RuntimeConfig().replace(threads=-1)
        # 1 is the only legal value, at every entry point that takes it;
        # the message names the knob that does set BLAS threads.
        with pytest.raises(ValueError, match="OMP_NUM_THREADS"):
            RuntimeConfig(threads=2)
        with pytest.raises(ValueError, match="threads must be 1"):
            InferenceSession(tiny_classifier(), threads=2)
        with pytest.raises(ValueError, match="threads must be 1"):
            compile_graph(tiny_classifier(), threads=2)
        with pytest.raises(ValueError, match="threads must be 1"):
            SessionPool("@loopback", threads=2)

        def no_spawn(*args, **kwargs):
            raise AssertionError("a worker process was spawned")

        monkeypatch.setattr(supervisor_mod.subprocess, "Popen", no_spawn)
        with pytest.raises(ValueError, match="threads must be 1"):
            WorkerSupervisor("@loopback", threads=2)

    def test_frozen(self):
        with pytest.raises(Exception):
            RuntimeConfig().threads = 2  # type: ignore[misc]
