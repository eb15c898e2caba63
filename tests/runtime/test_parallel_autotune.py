"""The per-layer autotuner."""

from repro.passes import default_pipeline
from repro.runtime.autotune import autotune
from tests.conftest import tiny_classifier


class TestAutotune:
    def test_returns_override_per_conv(self):
        graph = default_pipeline().run(tiny_classifier())
        overrides = autotune(
            graph, {"Conv": ("im2col", "direct")}, repeats=1)
        conv_names = {n.name for n in graph.nodes_by_type("Conv")}
        assert set(overrides) == conv_names
        assert all(v in ("im2col", "direct") for v in overrides.values())

    def test_identical_layers_share_measurement(self):
        from repro.ir.builder import GraphBuilder
        builder = GraphBuilder(seed=0)
        x = builder.input("input", (1, 4, 8, 8))
        y = builder.conv(x, 4, 3, pad=1)
        y = builder.conv(y, 4, 3, pad=1)  # identical signature
        builder.output(y)
        graph = builder.finish()
        overrides = autotune(graph, {"Conv": ("im2col", "direct")}, repeats=1)
        assert len(set(overrides.values())) == 1  # same winner from cache

    def test_inapplicable_candidates_skipped(self):
        graph = default_pipeline().run(tiny_classifier())
        # winograd is inapplicable to nothing here? tiny has a 3x3 s1 conv:
        # race winograd against a made-up-but-inapplicable set.
        overrides = autotune(graph, {"Conv": ("winograd",)}, repeats=1)
        for name, impl in overrides.items():
            assert impl == "winograd"

    def test_unknown_op_types_ignored(self):
        graph = default_pipeline().run(tiny_classifier())
        assert autotune(graph, {"NoSuchOp": ("x",)}, repeats=1) == {}

    def test_overrides_work_in_backend(self, rng):
        from repro.backends import Backend
        from repro.runtime.session import InferenceSession
        graph = default_pipeline().run(tiny_classifier())
        overrides = autotune(graph, {"Conv": ("direct",)}, repeats=1)
        backend = Backend(name="tuned-test", gemm="blas").with_overrides(overrides)
        session = InferenceSession(graph, backend=backend, optimize=False)
        plan = session.kernel_plan()
        for node_name, impl in overrides.items():
            assert plan[node_name] == impl
