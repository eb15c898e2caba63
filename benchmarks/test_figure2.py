"""Figure 2: single-thread inference time, five models x frameworks.

Regenerates the paper's evaluation figure cell by cell. Each benchmark is
one (framework, model) pair; DarkNet runs only the ResNets and TF-Lite is
absent entirely — exactly the exclusions the paper reports (asserted in
``test_exclusions_match_paper``).

Expected shape (paper, Section III):
  * TVM fastest on the small models (WRN-40-2, MobileNetV1);
  * Orpheus fastest on the big ones (ResNets, Inception-v3);
  * PyTorch slower than Orpheus everywhere, catastrophically so on
    MobileNetV1 (depthwise convolution pathology);
  * DarkNet seconds-scale on the ResNets.

``TestQualitativeClaims`` asserts that shape on configurations cheap
enough to run often. Its verdicts compare measured times, so it lives
here and not in the tier-1 suite: on a host that drifts between speed
states a failure is a reason to re-run and look, not a broken build.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import bench_rounds, scaled_image_size
from repro.bench.figure2 import run_figure2
from repro.bench.workloads import model_input
from repro.errors import FrameworkUnavailableError
from repro.frameworks import get_adapter
from repro.models.zoo import FIGURE2_MODELS

_FRAMEWORKS = ("orpheus", "tvm", "pytorch", "darknet")

_CELLS = [
    (framework, model)
    for model in FIGURE2_MODELS
    for framework in _FRAMEWORKS
]


@pytest.mark.parametrize("framework,model", _CELLS,
                         ids=[f"{m}-{f}" for f, m in _CELLS])
def test_figure2_cell(benchmark, framework, model):
    adapter = get_adapter(framework)
    image_size = scaled_image_size(model)
    try:
        prepared = adapter.prepare(model, image_size=image_size, threads=1)
    except FrameworkUnavailableError as exc:
        pytest.skip(f"excluded (paper-reported): {exc}")
    x = model_input(model, image_size=image_size)
    benchmark.group = f"figure2:{model}"
    benchmark.extra_info["framework"] = framework
    benchmark.pedantic(
        prepared.run, args=(x,), rounds=bench_rounds(), warmup_rounds=1)


def test_exclusions_match_paper():
    """DarkNet: ResNets only; TF-Lite: no single-thread runs at all."""
    darknet = get_adapter("darknet")
    for model in ("wrn-40-2", "mobilenet-v1", "inception-v3"):
        with pytest.raises(FrameworkUnavailableError):
            darknet.prepare(model)
    darknet.prepare("resnet18", image_size=64)
    with pytest.raises(FrameworkUnavailableError):
        get_adapter("tflite").prepare("mobilenet-v1", threads=1)


def test_outputs_agree_across_frameworks():
    """Every framework computes the same function (it is a fair race)."""
    image_size = scaled_image_size("wrn-40-2") or 32
    x = model_input("wrn-40-2", image_size=image_size)
    outputs = {}
    for framework in ("orpheus", "tvm", "pytorch"):
        prepared = get_adapter(framework).prepare(
            "wrn-40-2", image_size=image_size)
        outputs[framework] = prepared.run(x)
    for framework, out in outputs.items():
        np.testing.assert_allclose(
            out, outputs["orpheus"], rtol=1e-3, atol=1e-5,
            err_msg=f"{framework} diverges from orpheus")


@pytest.fixture(scope="module")
def small_grid():
    """Orpheus/TVM/PyTorch on the two small models."""
    return run_figure2(
        models=("wrn-40-2", "mobilenet-v1"),
        frameworks=("orpheus", "tvm", "pytorch"),
        repeats=5, warmup=1,
    )


class TestQualitativeClaims:
    """The paper's Section III observations."""

    def test_pytorch_never_beats_orpheus(self, small_grid):
        # Min-of-N comparison: robust to scheduler noise on a loaded box.
        for model in small_grid.models:
            orpheus = small_grid.best_ms("orpheus", model)
            pytorch = small_grid.best_ms("pytorch", model)
            assert orpheus < pytorch, model

    def test_pytorch_depthwise_pathology_on_mobilenet(self, small_grid):
        """PyTorch's MobileNet penalty is disproportionate (>1.5x Orpheus)."""
        ratio = small_grid.speedup("mobilenet-v1", "orpheus", "pytorch")
        assert ratio > 1.5

    def test_pytorch_gap_larger_on_mobilenet_than_wrn(self, small_grid):
        mobilenet_gap = small_grid.speedup("mobilenet-v1", "orpheus", "pytorch")
        wrn_gap = small_grid.speedup("wrn-40-2", "orpheus", "pytorch")
        assert mobilenet_gap > wrn_gap

    def test_tvm_competitive_on_small_models(self, small_grid):
        """TVM wins (or ties within noise) on the small models."""
        for model in small_grid.models:
            tvm = small_grid.best_ms("tvm", model)
            orpheus = small_grid.best_ms("orpheus", model)
            assert tvm < orpheus * 1.15, (
                f"TVM uncompetitive on {model}: {tvm:.1f} vs {orpheus:.1f} ms")

    def test_orpheus_wins_big_model(self):
        """Orpheus (GEMM conv) beats TVM (spatial pack) on a big model.

        Inception-v3 is used because its margin (~15%) is the widest; on
        ResNet-18 the two are within a few percent on this substrate (see
        EXPERIMENTS.md).
        """
        grid = run_figure2(
            models=("inception-v3",), frameworks=("orpheus", "tvm"),
            repeats=5, warmup=1)
        orpheus = grid.median_ms("orpheus", "inception-v3")
        tvm = grid.median_ms("tvm", "inception-v3")
        # ~1.17x margin in the recorded run, with a 5% tie-band.
        assert orpheus < tvm * 1.05, (orpheus, tvm)

    def test_darknet_seconds_scale_on_resnet18(self):
        """Paper: DarkNet ResNet-18 inference "measured in seconds" (~3 s)."""
        prepared = get_adapter("darknet").prepare("resnet18")
        (seconds,) = prepared.time(
            model_input("resnet18"), repeats=1, warmup=0)
        assert seconds > 1.0
