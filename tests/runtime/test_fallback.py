"""Kernel fallback chains: retry-on-failure, reports, protocol validation."""

import numpy as np
import pytest

from repro.backends import Backend, get_backend
from repro.config import RuntimeConfig
from repro.errors import ExecutionError, FallbackExhaustedError
from repro.kernels.registry import REGISTRY
from repro.models import zoo
from repro.runtime.executor import Executor
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.session import InferenceSession
from tests.conftest import tiny_classifier


def conv_impl_names():
    return [impl.name for impl in REGISTRY.implementations("Conv")]


def make_executor(graph=None, backend="orpheus", **config):
    graph = graph or tiny_classifier()
    if isinstance(backend, str):
        backend = get_backend(backend)
    return Executor(graph, backend, RuntimeConfig(**config))


class TestCandidateChains:
    def test_every_node_has_a_chain_headed_by_the_winner(self):
        executor = make_executor()
        plans = executor.fallback_plan()
        winners = executor.kernel_plan()
        assert plans.keys() == winners.keys()
        for name, chain in plans.items():
            assert chain[0] == winners[name]
            assert len(chain) >= 1

    def test_conv_chain_bottoms_out_on_reference(self):
        executor = make_executor()
        plans = executor.fallback_plan()
        conv_chains = [chain for name, chain in plans.items()
                       if name.startswith("Conv")]
        assert conv_chains
        for chain in conv_chains:
            assert chain[-1] == "reference"
            assert len(set(chain)) == len(chain)  # no duplicates

    def test_backend_candidates_respect_applicability(self):
        backend = get_backend("orpheus")
        graph = tiny_classifier()
        executor = make_executor(graph, backend)
        for entry in executor.schedule:
            shapes = [executor.value_types[n][0] if n else ()
                      for n in entry.node.inputs]
            for impl in entry.candidates:
                assert impl.supports(entry.node, shapes)


class TestFallbackExecution:
    def test_primary_conv_failure_recovers_everywhere(self, rng):
        """Acceptance: top-priority Conv kernel raising on every node still
        yields outputs matching the no-fault run, one FallbackEvent per
        Conv node."""
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        clean = InferenceSession(
            zoo.build("mobilenet-v1", image_size=32)).run({"input": x})
        plan = FaultPlan(
            [FaultSpec(mode="raise", op_type="Conv", attempt=0)], seed=0)
        session = InferenceSession(
            zoo.build("mobilenet-v1", image_size=32), fault_plan=plan)
        faulted = session.run({"input": x})
        for name in clean:
            np.testing.assert_allclose(
                clean[name], faulted[name], rtol=1e-4, atol=1e-5)
        report = session.robustness_report()
        conv_nodes = [n for n in session.graph.nodes if n.op_type == "Conv"]
        assert len(report.fallback_events) == len(conv_nodes)
        assert {e.node_name for e in report.fallback_events} == {
            n.name for n in conv_nodes}
        assert all(e.recovered_impl for e in report.fallback_events)

    def test_every_conv_algorithm_fails_over_to_reference(self, rng):
        """Kill every Conv implementation except reference: the chain
        bottoms out on the canonical kernel and results stay correct."""
        specs = [
            FaultSpec(mode="raise", op_type="Conv", impl=name)
            for name in conv_impl_names() if name != "reference"
        ]
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        clean, _ = make_executor().run({"input": x})
        executor = make_executor(fault_plan=FaultPlan(specs, seed=0))
        faulted, _ = executor.run({"input": x})
        for name in clean:
            np.testing.assert_allclose(
                clean[name], faulted[name], rtol=1e-4, atol=1e-5)
        report = executor.robustness_report()
        recovered_with = {e.recovered_impl for e in report.fallback_events
                          if e.op_type == "Conv"}
        assert recovered_with == {"reference"}

    def test_residual_conv_recovers_with_the_fused_epilogue(self, rng):
        """``im2col`` raising on every residual conv of wrn-40-2: each
        recovers on its next candidate, which honours the fused residual
        and activation too — the output is bitwise a session that picks
        that candidate first, and within rounding of the clean run."""
        graph = zoo.build("wrn-40-2", image_size=8)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        clean = InferenceSession(graph)
        residual = [n.name for n in clean.graph.nodes
                    if n.op_type == "Conv" and len(n.inputs) == 4]
        assert len(residual) == 18
        plan = FaultPlan([FaultSpec(mode="raise", node=name, impl="im2col")
                          for name in residual], seed=0)
        session = InferenceSession(graph, fault_plan=plan)
        faulted = session.run({"input": x})["output"]
        events = session.robustness_report().fallback_events
        assert sorted(e.node_name for e in events) == sorted(residual)
        [recovered] = {e.recovered_impl for e in events}
        chains = session.fallback_plan()
        assert all(chains[name][:2] == ("im2col", recovered) for name in residual)
        second = get_backend("orpheus").with_overrides(
            {name: recovered for name in residual})
        assert InferenceSession(graph, second).run(
            {"input": x})["output"].tobytes() == faulted.tobytes()
        np.testing.assert_allclose(clean.run({"input": x})["output"], faulted,
                                   rtol=1e-4, atol=1e-5)

    def test_exhausted_chain_raises_with_full_story(self, rng):
        specs = [FaultSpec(mode="raise", op_type="Conv")]  # reference too
        executor = make_executor(fault_plan=FaultPlan(specs, seed=0))
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        with pytest.raises(FallbackExhaustedError, match="failed on node"):
            executor.run({"input": x})
        report = executor.robustness_report()
        assert report.exhausted
        assert not report.recovered

    def test_no_fallback_config_aborts_on_first_failure(self, rng):
        plan = FaultPlan(
            [FaultSpec(mode="raise", op_type="Conv", attempt=0)], seed=0)
        executor = make_executor(fault_plan=plan, kernel_fallback=False)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        with pytest.raises(ExecutionError, match="failed on node"):
            executor.run({"input": x})

    def test_organic_failure_still_wrapped(self, rng):
        """The seed behaviour: corrupt weights -> ExecutionError."""
        executor = make_executor()
        weight = executor.graph.nodes_by_type("Conv")[0].inputs[1]
        executor.graph.initializers[weight] = np.zeros((2, 2), dtype=np.float32)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        with pytest.raises(ExecutionError, match="failed on node"):
            executor.run({"input": x})

    def test_reset_robustness_clears_log_and_rearms_plan(self, rng):
        plan = FaultPlan(
            [FaultSpec(mode="raise", op_type="Conv", attempt=0,
                       max_triggers=1)], seed=0)
        executor = make_executor(fault_plan=plan)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        executor.run({"input": x})
        first = executor.robustness_report()
        assert len(first.injected_faults) == 1
        executor.reset_robustness()
        assert executor.robustness_report().clean
        executor.run({"input": x})
        again = executor.robustness_report()
        assert len(again.injected_faults) == 1  # max_triggers re-armed


class TestRobustnessReport:
    def test_clean_report_on_clean_run(self, rng):
        executor = make_executor()
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        executor.run({"input": x})
        report = executor.robustness_report()
        assert report.clean
        assert report.runs == 1
        assert report.fallbacks_by_node() == {}

    def test_summary_mentions_events(self, rng):
        plan = FaultPlan(
            [FaultSpec(mode="raise", op_type="Conv", attempt=0)], seed=0)
        session = InferenceSession(tiny_classifier(), fault_plan=plan)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        session.run({"input": x})
        text = session.robustness_report().summary()
        assert "fallback event(s)" in text
        assert "injected" in text


class TestProtocolValidation:
    """repeats/warmup are rejected up front, not via statistics errors."""

    @pytest.fixture
    def session(self):
        return InferenceSession(tiny_classifier())

    def feed(self, rng):
        return {"input": rng.standard_normal((1, 3, 8, 8)).astype(np.float32)}

    def test_time_rejects_zero_repeats(self, session, rng):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            session.time(self.feed(rng), repeats=0)

    def test_time_rejects_negative_warmup(self, session, rng):
        with pytest.raises(ValueError, match="warmup must be >= 0"):
            session.time(self.feed(rng), repeats=1, warmup=-1)

    def test_profile_rejects_zero_repeats(self, session, rng):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            session.profile(self.feed(rng), repeats=0)

    def test_zero_warmup_allowed(self, session, rng):
        assert len(session.time(self.feed(rng), repeats=2, warmup=0)) == 2
