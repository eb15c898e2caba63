"""Executor: preparation, input binding, execution errors, validation mode."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.config import RuntimeConfig
from repro.errors import ExecutionError
from repro.ir.builder import GraphBuilder
from repro.runtime.executor import Executor
from tests.conftest import tiny_classifier


def make_executor(graph=None, **config):
    graph = graph or tiny_classifier()
    return Executor(graph, get_backend("orpheus"), RuntimeConfig(**config))


class TestPreparation:
    def test_kernel_plan_covers_all_nodes(self):
        executor = make_executor()
        assert len(executor.kernel_plan()) == len(executor.graph.nodes)

    def test_plan_respects_backend_preferences(self):
        executor = make_executor()
        plan = executor.kernel_plan()
        conv_impls = {impl for name, impl in plan.items()
                      if name.startswith("Conv")}
        assert conv_impls == {"im2col"}

    def test_invalid_graph_rejected(self, tiny_graph):
        graph = tiny_graph.copy()
        graph.nodes[0].inputs[0] = "ghost"
        with pytest.raises(Exception):
            make_executor(graph)


class TestInputBinding:
    def test_missing_input_rejected(self):
        executor = make_executor()
        with pytest.raises(ExecutionError, match="missing graph input"):
            executor.run({})

    def test_unknown_input_rejected(self, rng):
        executor = make_executor()
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        with pytest.raises(ExecutionError, match="unknown graph inputs"):
            executor.run({"input": x, "other": x})

    def test_wrong_shape_rejected(self, rng):
        executor = make_executor()
        with pytest.raises(ExecutionError, match="expected shape"):
            executor.run({"input": rng.standard_normal((1, 3, 9, 9))})

    def test_dtype_coerced(self, rng):
        executor = make_executor()
        x = rng.standard_normal((1, 3, 8, 8))  # float64
        outputs, _ = executor.run({"input": x})
        out = next(iter(outputs.values()))
        assert out.dtype == np.float32

    def test_symbolic_batch_accepts_any_batch(self, rng):
        builder = GraphBuilder()
        x = builder.input("input", (-1, 4))
        builder.output(builder.relu(x))
        executor = make_executor(builder.finish())
        for batch in (1, 5):
            outputs, _ = executor.run(
                {"input": rng.standard_normal((batch, 4)).astype(np.float32)})
            assert next(iter(outputs.values())).shape == (batch, 4)


class TestExecution:
    def test_timings_collected(self, rng):
        executor = make_executor()
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        _, timings = executor.run({"input": x}, collect_timings=True)
        assert len(timings) == len(executor.graph.nodes)
        assert all(t.seconds >= 0 for t in timings)

    def test_keep_values_returns_intermediates(self, rng):
        executor = make_executor()
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        values, _ = executor.run({"input": x}, keep_values=True)
        # All node outputs present, plus inputs and weights.
        for node in executor.graph.nodes:
            for out in node.outputs:
                assert out in values

    def test_validation_mode_passes_on_correct_kernels(self, rng):
        executor = make_executor(validate_kernels=True)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        executor.run({"input": x})

    def test_kernel_failure_wrapped(self, rng):
        graph = tiny_classifier()
        executor = make_executor(graph)
        # Corrupt a weight to a wrong shape after preparation.
        weight_name = executor.graph.nodes_by_type("Conv")[0].inputs[1]
        executor.graph.initializers[weight_name] = np.zeros(
            (2, 2), dtype=np.float32)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        with pytest.raises(ExecutionError, match="failed on node"):
            executor.run({"input": x})

    def test_memory_planning_toggle_same_results(self, rng):
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        with_plan, _ = make_executor().run({"input": x})
        # keep_values is the remaining way to skip the plan's releases.
        without_plan, _ = make_executor().run({"input": x}, keep_values=True)
        for key in with_plan:
            np.testing.assert_array_equal(with_plan[key], without_plan[key])


class TestKernelValidation:
    """validate_kernels mode catches kernels that lie about their output.

    With kernel fallback enabled (the default) a lying kernel is *recovered*
    — the node retries with the next applicable implementation and the lie
    is logged as a FallbackEvent. The strict tests therefore disable
    fallback to assert the raise.
    """

    def _executor_with_lying_conv(self, lie, **config):
        from repro.kernels.registry import REGISTRY, KernelImpl

        def lying_conv(inputs, node, ctx):
            out = REGISTRY.get("Conv", "im2col").fn(inputs, node, ctx)
            return [lie(out[0])]

        REGISTRY.register(KernelImpl(
            op_type="Conv", name="lying_conv_test", fn=lying_conv,
            priority=-50, experimental=True))
        from repro.backends import Backend
        backend = Backend(name="lying-test",
                          preferences={"Conv": ("lying_conv_test",)},
                          include_experimental=True)
        return Executor(tiny_classifier(), backend,
                        RuntimeConfig(validate_kernels=True, **config))

    def teardown_method(self):
        from repro.kernels.registry import REGISTRY
        try:
            REGISTRY.unregister("Conv", "lying_conv_test")
        except Exception:
            pass

    def test_wrong_shape_caught(self, rng):
        executor = self._executor_with_lying_conv(
            lambda out: out[:, :, :-1], kernel_fallback=False)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        with pytest.raises(ExecutionError, match="has shape"):
            executor.run({"input": x})

    def test_wrong_dtype_caught(self, rng):
        executor = self._executor_with_lying_conv(
            lambda out: out.astype(np.float64), kernel_fallback=False)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        with pytest.raises(ExecutionError, match="dtype"):
            executor.run({"input": x})

    def test_wrong_shape_recovered_by_fallback(self, rng):
        executor = self._executor_with_lying_conv(lambda out: out[:, :, :-1])
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        executor.run({"input": x})
        report = executor.robustness_report()
        assert report.counts_by_kind() == {"shape": 1}
        (event,) = report.fallback_events
        assert event.failed_impl == "lying_conv_test"
        assert event.recovered_impl is not None

    def test_wrong_dtype_recovered_by_fallback(self, rng):
        executor = self._executor_with_lying_conv(
            lambda out: out.astype(np.float64))
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        outputs, _ = executor.run({"input": x})
        assert next(iter(outputs.values())).dtype == np.float32
        assert executor.robustness_report().counts_by_kind() == {"dtype": 1}


class TestDepthwisePinnedBytes:
    """What ``direct_dw`` keeps for a session's life, counted, not timed.

    The first row of the deterministic work ledger: mobilenet-v1 used to
    pin one full-output scratch per depthwise node (13 arrays, 7.7 MB);
    it now pins 13 tap packs of C x 10 and one workspace, shared with
    ``im2col`` and as large as the largest request.
    """

    def test_one_workspace_thirteen_packs_and_a_quiet_second_run(self, rng):
        from repro.kernels.depthwise import _BLOCK_FLOATS
        from repro.models import zoo
        from repro.runtime.session import InferenceSession

        session = InferenceSession(
            zoo.build("mobilenet-v1"), backend="orpheus", threads=1)
        plan = session.kernel_plan()
        depthwise = [name for name, impl in plan.items()
                     if impl == "direct_dw"]
        assert len(depthwise) == 13
        feed = {"input": rng.standard_normal(
            (1, 3, 224, 224)).astype(np.float32)}
        first = session.run(feed)
        cache = session._executor.context.cache

        def keys(tag):
            return [key for key in cache if key[0] == tag]

        # The largest request is the im2col stem (3x3/2, pads 1 at 224): its
        # row-padded planes (a one-float head, 226 rows of pitch 224 and a
        # one-float tail per channel) and its columns. No depthwise block
        # asks for more than _BLOCK_FLOATS.
        stem = 3 * (1 + 226 * 224 + 1) + 27 * 112 * 112
        assert stem > _BLOCK_FLOATS
        [workspace] = keys("workspace")
        assert workspace == ("workspace", "<f4")
        assert cache[workspace].nbytes == 4 * stem
        assert sorted(key[1] for key in keys("dw_pack")) == sorted(depthwise)
        assert not [key for key in cache if str(key[0]).startswith("dw_scratch")]
        graph = session.graph
        for key in keys("dw_pack"):
            (weight, bias), pack = cache[key]
            assert pack.shape == (weight.shape[0], 1, 10)
            assert pack.nbytes == weight.shape[0] * 10 * 4
            node = next(n for n in graph.nodes if n.name == key[1])
            assert weight is graph.initializers[node.inputs[1]]

        before = {key: id(value) for key, value in cache.items()}
        second = session.run(feed)
        assert {key: id(value) for key, value in cache.items()} == before
        for name in first:
            assert first[name].tobytes() == second[name].tobytes()
