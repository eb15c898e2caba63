"""Cross-module integration: the full pipeline on real (reduced) models."""

import numpy as np
import pytest

from repro import InferenceSession
from repro.backends import Backend, register_backend, unregister_backend
from repro.bench.workloads import model_input
from repro.kernels.registry import REGISTRY, KernelImpl
from repro.models import zoo
from repro.onnx import load_model_bytes, save_model_bytes


MODELS = [("wrn-40-2", 32), ("mobilenet-v1", 64), ("resnet18", 64),
          ("resnet50", 64), ("inception-v3", 128)]


class TestFullPipeline:
    @pytest.mark.parametrize("name,size", MODELS)
    def test_build_export_import_optimize_run(self, name, size):
        """The paper's Figure 1 flow: train-side export -> ONNX -> simplify
        -> runtime."""
        graph = zoo.build(name, image_size=size)
        onnx_bytes = save_model_bytes(graph)
        imported = load_model_bytes(onnx_bytes)
        x = model_input(name, image_size=size)
        optimized = InferenceSession(imported, optimize=True)
        plain = InferenceSession(graph, optimize=False)
        np.testing.assert_allclose(
            optimized.run({"input": x})["output"],
            plain.run({"input": x})["output"],
            rtol=1e-3, atol=1e-5)

    @pytest.mark.parametrize("backend", ["orpheus", "direct", "spatial_pack",
                                         "winograd"])
    def test_backends_agree_on_mobilenet(self, backend):
        graph = zoo.build("mobilenet-v1", image_size=32)
        x = model_input("mobilenet-v1", image_size=32)
        base = InferenceSession(graph, backend="orpheus").run({"input": x})
        other = InferenceSession(graph, backend=backend).run({"input": x})
        np.testing.assert_allclose(
            base["output"], other["output"], rtol=1e-3, atol=1e-5)

    def test_validate_kernels_mode_full_model(self):
        from repro.config import RuntimeConfig
        graph = zoo.build("wrn-40-2", image_size=16)
        session = InferenceSession(
            graph, config=RuntimeConfig(validate_kernels=True))
        session.run({"input": model_input("wrn-40-2", image_size=16)})


class TestThirdPartyBackendIntegration:
    """The paper's 'easy integration of third party backends' claim,
    exercised end to end: register a kernel + backend, run a model."""

    def test_custom_kernel_and_backend(self):
        calls = []

        def counting_conv(inputs, node, ctx):
            calls.append(node.name)
            return REGISTRY.get("Conv", "im2col").fn(inputs, node, ctx)

        REGISTRY.register(KernelImpl(
            op_type="Conv", name="thirdparty_conv", fn=counting_conv,
            priority=-5))
        backend = register_backend(Backend(
            name="thirdparty-e2e",
            description="test plugin",
            preferences={"Conv": ("thirdparty_conv",)},
        ))
        try:
            graph = zoo.build("wrn-40-2", image_size=16)
            session = InferenceSession(graph, backend=backend)
            impls = set(session.kernel_plan().values())
            assert "thirdparty_conv" in impls
            session.run({"input": model_input("wrn-40-2", image_size=16)})
            assert len(calls) == len(graph.nodes_by_type("Conv"))
        finally:
            unregister_backend("thirdparty-e2e")
            REGISTRY.unregister("Conv", "thirdparty_conv")


class TestQuantizationEndToEnd:
    def test_quantized_wrn_keeps_top1(self):
        from repro.bench.workloads import calibration_batches
        from repro.passes import default_pipeline
        from repro.quant import calibrate, quantize_graph

        graph = default_pipeline().run(zoo.build("wrn-40-2", image_size=16))
        batches = [{"input": b} for b in calibration_batches(
            "wrn-40-2", count=2, image_size=16)]
        qgraph, report = quantize_graph(graph, calibrate(graph, batches))
        assert report.converted_convs > 30
        x = model_input("wrn-40-2", image_size=16, seed=42)
        f32 = InferenceSession(graph, optimize=False).run({"input": x})
        int8 = InferenceSession(qgraph, optimize=False).run({"input": x})
        assert f32["output"].argmax() == int8["output"].argmax()
