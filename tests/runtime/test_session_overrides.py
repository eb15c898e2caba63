"""One override rule on every front door.

Every ``RuntimeConfig`` field is a keyword of ``InferenceSession`` and
``from_engine``; ``None`` means "not overridden"; a name that is not a
field — the retired ones included — is a ``TypeError``.
"""

import dataclasses

import pytest

from repro.config import RuntimeConfig
from repro.engine import compile_graph
from repro.errors import EngineError
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.session import InferenceSession
from tests.conftest import tiny_classifier

#: A non-default value per field. Keyed by name so that a new field without
#: an entry fails `test_every_field_has_a_value` instead of going untested.
_VALUES = {
    "optimize": False,
    "validate_kernels": True,
    "kernel_fallback": False,
    "check_numerics": True,
    "fault_plan": FaultPlan([FaultSpec(mode="raise", op_type="Softmax")]),
    "memory_budget_bytes": 1 << 30,
}
#: Every field but ``threads``, which has no second legal value.
_FIELDS = [field.name for field in dataclasses.fields(RuntimeConfig)
           if field.name != "threads"]
#: Frozen into an engine's fingerprint; `from_engine` only asserts them.
_PREPARE_TIME = ("optimize",)
_RUN_TIME = [name for name in _FIELDS if name not in _PREPARE_TIME]


@pytest.fixture(scope="module")
def engine():
    """tiny_classifier compiled at the defaults: optimised."""
    return compile_graph(tiny_classifier(), backend="orpheus", threads=1)


def test_every_field_has_a_value():
    assert _FIELDS == list(_VALUES)
    default = RuntimeConfig()
    for name, value in _VALUES.items():
        assert getattr(default, name) != value, name


class TestInferenceSession:
    @pytest.mark.parametrize("name", _FIELDS)
    def test_keyword_lands_in_session_config(self, name):
        session = InferenceSession(tiny_classifier(), **{name: _VALUES[name]})
        assert session.config == RuntimeConfig(**{name: _VALUES[name]})

    @pytest.mark.parametrize("name", _FIELDS)
    def test_none_leaves_the_base_config_value(self, name):
        base = RuntimeConfig(**{name: _VALUES[name]})
        session = InferenceSession(tiny_classifier(), config=base,
                                   **{name: None})
        assert session.config == base

    def test_keyword_beats_base_config(self):
        base = RuntimeConfig(memory_budget_bytes=1 << 30)
        session = InferenceSession(tiny_classifier(), config=base,
                                   memory_budget_bytes=1 << 31)
        assert session.config.memory_budget_bytes == 1 << 31


class TestFromEngine:
    @pytest.mark.parametrize("name", _RUN_TIME)
    def test_run_time_keyword_lands_in_session_config(self, engine, name):
        session = InferenceSession.from_engine(
            engine, **{name: _VALUES[name]})
        assert session.config == RuntimeConfig(**{name: _VALUES[name]})

    @pytest.mark.parametrize("name", _RUN_TIME)
    def test_none_leaves_the_base_config_value(self, engine, name):
        base = RuntimeConfig(**{name: _VALUES[name]})
        session = InferenceSession.from_engine(
            engine, config=base, **{name: None})
        assert session.config == base

    @pytest.mark.parametrize("name", _PREPARE_TIME)
    def test_prepare_time_keyword_is_an_assertion(self, engine, name):
        with pytest.raises(EngineError, match=name):
            InferenceSession.from_engine(engine, **{name: _VALUES[name]})
        agreed = InferenceSession.from_engine(
            engine, **{name: getattr(RuntimeConfig(), name)})
        assert agreed.config == RuntimeConfig()

    def test_prepare_time_fields_come_from_the_engine_not_the_config(
            self, engine):
        session = InferenceSession.from_engine(
            engine, config=RuntimeConfig(optimize=False))
        assert session.config.optimize


class TestRejected:
    @pytest.mark.parametrize("keyword", [
        {"bogus": 1},
        {"bogus": None},            # the name is checked, not the value
        {"budget_mode": "degrade"},
        {"memory_planning": False},
        {"deadline_ms": 1e3},       # a run's deadline is per call
        {"node_timeout_ms": 1e3},
    ])
    def test_unknown_or_retired_keyword(self, engine, keyword):
        with pytest.raises(TypeError):
            InferenceSession(tiny_classifier(), **keyword)
        with pytest.raises(TypeError):
            InferenceSession.from_engine(engine, **keyword)

    @pytest.mark.parametrize("field", [
        {"memory_planning": False}, {"backend": "x"},
        {"budget_mode": "reject"}, {"deadline_ms": 1e3},
        {"node_timeout_ms": 1e3},
    ])
    def test_retired_config_field(self, field):
        with pytest.raises(TypeError):
            RuntimeConfig(**field)

    def test_third_positional_argument(self, engine):
        """``config``/``engine`` are keyword-only: an old positional
        ``threads`` must not be read as ``config=1``."""
        with pytest.raises(TypeError):
            InferenceSession(tiny_classifier(), "orpheus", 1)
        with pytest.raises(TypeError):
            InferenceSession.from_engine(engine, "orpheus", 1)
