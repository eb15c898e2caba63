"""The default pass pipeline: semantics preserved on real models."""

import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.models import zoo
from repro.passes import FoldBatchNorm, FuseConvActivation, default_pipeline
from repro.runtime.session import InferenceSession
from repro.testing import random_ir_graph


def outputs_for(graph, shape, optimize_already_done):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(shape).astype(np.float32)
    sess = InferenceSession(graph, optimize=False)
    return sess.run({"input": x})["output"]


class TestPipelineOnModels:
    """Optimised graphs compute the same function with fewer nodes."""

    # Node counts before -> after the pipeline do not depend on image size.
    # WRN is pre-activation (BN feeds the conv), so only the post-conv BNs
    # fold; the post-activation models lose every BN.
    _MODELS = (  # model, image size, BN-free after, nodes before, after
        ("wrn-40-2", 16, False, 136, 98),
        ("mobilenet-v1", 64, True, 85, 31),
        ("resnet18", 64, True, 70, 41),
        ("resnet50", 64, True, 176, 90),
        ("inception-v3", 128, True, 315, 126),
    )

    @pytest.mark.parametrize(
        "model,size,bn_free,nodes_before,nodes_after", _MODELS,
        ids=[f"{model}-{size}-{bn_free}" for model, size, bn_free, *_ in _MODELS])
    def test_equivalence_and_shrinkage(self, model, size, bn_free,
                                       nodes_before, nodes_after):
        graph = zoo.build(model, image_size=size)
        optimized = default_pipeline().run(graph)
        assert (len(graph.nodes), len(optimized.nodes)) == (
            nodes_before, nodes_after)
        bn_before = len(graph.nodes_by_type("BatchNormalization"))
        bn_after = len(optimized.nodes_by_type("BatchNormalization"))
        assert bn_after < bn_before
        if bn_free:
            assert bn_after == 0
        shape = (1, 3, size, size)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(shape).astype(np.float32)
        base = InferenceSession(graph, optimize=False).run({"input": x})
        opt = InferenceSession(optimized, optimize=False).run({"input": x})
        np.testing.assert_allclose(
            base["output"], opt["output"], rtol=1e-3, atol=1e-5)

    def test_pipeline_is_idempotent(self):
        graph = zoo.build("wrn-40-2", image_size=16)
        pipeline = default_pipeline()
        once = pipeline.run(graph)
        twice = default_pipeline().run(once)
        assert len(twice.nodes) == len(once.nodes)

    def test_report_records_rewrites(self):
        graph = zoo.build("wrn-40-2", image_size=16)
        pipeline = default_pipeline()
        pipeline.run(graph)
        report = pipeline.last_report
        assert report is not None
        totals: dict[str, int] = {}
        for name, count in report.counts:  # names repeat across iterations
            totals[name] = totals.get(name, 0) + count
        # wrn-40-2 is pre-activation: only its post-conv BNs can fold.
        assert totals.get("fold-batchnorm", 0) > 0
        assert report.total > 0

    def test_original_graph_untouched(self):
        graph = zoo.build("wrn-40-2", image_size=16)
        nodes_before = len(graph.nodes)
        default_pipeline().run(graph)
        assert len(graph.nodes) == nodes_before

    def test_unused_initializers_pruned(self):
        graph = zoo.build("wrn-40-2", image_size=16)
        optimized = default_pipeline().run(graph)
        used = set()
        for node in optimized.nodes:
            used.update(node.present_inputs)
        dangling = [name for name in optimized.initializers
                    if name not in used and name not in optimized.output_names]
        assert dangling == []

    def test_fuse_can_be_disabled(self):
        graph = zoo.build("wrn-40-2", image_size=16)
        unfused = default_pipeline(fuse=False).run(graph)
        assert all("activation" not in node.attrs for node in unfused.nodes)
        # Still exportable to ONNX (no internal attributes).
        from repro.onnx import save_model_bytes
        save_model_bytes(unfused)


def _chain(*ops):
    """Conv followed by ``ops`` — a rewrite chain one map build cannot see
    through: each rewrite renames the value the next candidate reads."""
    builder = GraphBuilder("-".join(("conv",) + ops), seed=1)
    y = builder.conv(builder.input("input", (1, 3, 8, 8)), 4, 3, pad=1)
    for op in ops:
        y = getattr(builder, op)(y)
    builder.output(y)
    return builder.finish()


class TestPipelineOnGeneratedGraphs:
    """FoldBatchNorm/FuseConvActivation build their producer/consumer maps
    once per ``apply``; a rewrite a stale entry hides must be deferred to
    the next fixed-point iteration — never dropped, never mis-applied."""

    @pytest.mark.parametrize("make", [
        *[pytest.param(lambda seed=seed: random_ir_graph(seed),
                       id=f"random-{seed}") for seed in range(8)],
        pytest.param(lambda: _chain("batch_norm", "batch_norm"),
                     id="conv-bn-bn"),
        pytest.param(lambda: _chain("relu", "relu"), id="conv-relu-relu"),
    ])
    def test_idempotent_and_output_equivalent(self, make):
        graph = make()
        once = default_pipeline().run(graph)
        again = default_pipeline()
        twice = again.run(once)
        assert again.last_report.total == 0  # the first run reached the fixed point
        assert [(n.op_type, n.inputs, n.outputs) for n in twice.nodes] == \
            [(n.op_type, n.inputs, n.outputs) for n in once.nodes]
        x = np.random.default_rng(7).standard_normal(
            graph.inputs[0].shape).astype(np.float32)
        base = InferenceSession(graph, optimize=False).run({"input": x})
        opt = InferenceSession(once, optimize=False).run({"input": x})
        for name in graph.output_names:
            np.testing.assert_allclose(
                base[name], opt[name], rtol=1e-3, atol=1e-5)

    def test_second_batchnorm_of_a_chain_is_deferred_then_folded(self):
        graph = _chain("batch_norm", "batch_norm")
        fold = FoldBatchNorm()
        assert [fold.apply(graph), fold.apply(graph), fold.apply(graph)] == \
            [1, 1, 0]
        assert [node.op_type for node in graph.nodes] == ["Conv"]
        graph.validate()

    def test_second_relu_of_a_chain_is_never_fused(self):
        graph = _chain("relu", "relu")
        fuse = FuseConvActivation()
        assert [fuse.apply(graph), fuse.apply(graph)] == [1, 0]
        conv, relu = graph.nodes
        assert conv.attrs.as_dict()["activation"] == "relu"
        assert relu.op_type == "Relu" and relu.inputs == conv.outputs
        graph.validate()
