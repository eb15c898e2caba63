"""Framework adapters: availability rules, measurement mechanics, Table I data."""

import numpy as np
import pytest

from repro.bench.workloads import model_input
from repro.errors import FrameworkUnavailableError
from repro.frameworks import get_adapter, list_adapters
from repro.frameworks.base import Measurement
from repro.frameworks.features import (
    CRITERIA,
    FRAMEWORKS,
    RATIONALE,
    SCORES,
)


class TestRegistry:
    def test_all_five_adapters_registered(self):
        names = {a.name for a in list_adapters()}
        assert {"orpheus", "tvm", "pytorch", "darknet", "tflite"} <= names

    def test_unknown_adapter_rejected(self):
        with pytest.raises(FrameworkUnavailableError, match="unknown framework"):
            get_adapter("mxnet")


class TestAvailabilityRules:
    """The paper's stated exclusions, encoded as behaviour."""

    def test_darknet_only_ships_resnets(self):
        adapter = get_adapter("darknet")
        for model in ("wrn-40-2", "mobilenet-v1", "inception-v3"):
            with pytest.raises(FrameworkUnavailableError, match="ResNet"):
                adapter.prepare(model)

    def test_darknet_accepts_resnet(self):
        get_adapter("darknet").prepare("resnet18", image_size=32)

    def test_tflite_cannot_pin_one_thread(self):
        with pytest.raises(FrameworkUnavailableError, match="maximum number"):
            get_adapter("tflite").prepare("wrn-40-2")

    def test_tflite_cannot_import_resnets(self):
        with pytest.raises(FrameworkUnavailableError, match="import"):
            get_adapter("tflite").prepare("resnet18")

    def test_orpheus_tvm_pytorch_run_everything(self):
        for name in ("orpheus", "tvm", "pytorch"):
            get_adapter(name).prepare("wrn-40-2", image_size=16)


class TestMeasurement:
    def test_measure_returns_samples(self):
        prepared = get_adapter("orpheus").prepare("wrn-40-2")
        m = Measurement("orpheus", "wrn-40-2", tuple(
            prepared.time(model_input("wrn-40-2"), repeats=3, warmup=1)))
        assert len(m.times) == 3
        assert m.best <= m.median
        assert m.framework == "orpheus" and m.model == "wrn-40-2"

    def test_measurement_requires_samples(self):
        with pytest.raises(ValueError):
            Measurement("f", "m", ())

    def test_kernel_choices_differ_between_adapters(self):
        orpheus = get_adapter("orpheus").prepare("wrn-40-2")
        pytorch = get_adapter("pytorch").prepare("wrn-40-2")
        orpheus_impls = set(orpheus.session.kernel_plan().values())
        pytorch_impls = set(pytorch.session.kernel_plan().values())
        assert "im2col" in orpheus_impls
        assert "im2col_loops" in pytorch_impls

    def test_pytorch_sim_uses_perchannel_depthwise(self):
        prepared = get_adapter("pytorch").prepare("mobilenet-v1", image_size=32)
        impls = set(prepared.session.kernel_plan().values())
        assert "perchannel_gemm_dw" in impls

    def test_pytorch_sim_skips_graph_optimisation(self):
        prepared = get_adapter("pytorch").prepare("wrn-40-2")
        assert len(prepared.session.graph.nodes_by_type(
            "BatchNormalization")) > 0

    def test_darknet_uses_blocked_gemm(self):
        assert get_adapter("darknet").backend.gemm == "blocked"

    def test_tvm_autotunes_to_non_gemm_kernels(self):
        prepared = get_adapter("tvm").prepare("wrn-40-2")
        impls = set(prepared.session.kernel_plan().values())
        assert impls & {"spatial_pack", "direct", "winograd"}
        assert "im2col" not in impls

    def test_adapters_agree_numerically(self, rng):
        """Different frameworks, same model, same function."""
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        outputs = {}
        for name in ("orpheus", "tvm", "pytorch"):
            prepared = get_adapter(name).prepare("wrn-40-2")
            outputs[name] = prepared.run(x)
        np.testing.assert_allclose(
            outputs["orpheus"], outputs["tvm"], rtol=1e-3, atol=1e-5)
        np.testing.assert_allclose(
            outputs["orpheus"], outputs["pytorch"], rtol=1e-3, atol=1e-5)


class TestTable1Data:
    def test_paper_layout(self):
        assert len(CRITERIA) == 5
        assert FRAMEWORKS == ("TF-Lite", "PyTorch", "DarkNet", "TVM", "Orpheus")

    def test_scores_complete_and_in_range(self):
        for framework in FRAMEWORKS:
            for criterion in CRITERIA:
                assert 1 <= SCORES[framework][criterion] <= 3

    def test_matches_paper_exactly(self):
        # All 25 cells, transcribed directly from Table I (CRITERIA order).
        expected = {
            "TF-Lite": (1, 2, 3, 1, 2),
            "PyTorch": (1, 3, 2, 2, 2),
            "DarkNet": (2, 1, 3, 3, 1),
            "TVM": (2, 3, 3, 1, 2),
            "Orpheus": (3, 3, 3, 3, 3),
        }
        assert {framework: tuple(SCORES[framework][c] for c in CRITERIA)
                for framework in FRAMEWORKS} == expected

    def test_orpheus_scores_all_threes(self):
        assert all(SCORES["Orpheus"][c] == 3 for c in CRITERIA)

    def test_rationale_for_every_framework(self):
        assert set(RATIONALE) == set(FRAMEWORKS)
