"""Edge deployment walkthrough: train-side export -> ONNX -> simplify ->
quantize -> deploy.

The scenario from the paper's introduction: a model leaves a training
framework (played by the `repro.frontend` module API), crosses the ONNX
boundary as real protobuf bytes, and is prepared for a memory-constrained
edge target — graph simplification, int8 quantization, and a before/after
cost report (inference time, memory footprint, energy proxy).

Run with:  python examples/edge_deployment.py
"""

import numpy as np

from repro import InferenceSession
from repro.analysis import estimate_energy_mj, footprint
from repro.bench.workloads import synthetic_image_batch
from repro.frontend import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    ReLU,
    ReLU6,
    Sequential,
    Softmax,
    export_onnx,
)
from repro.onnx import load_model_bytes
from repro.passes import default_pipeline
from repro.quant import calibrate, quantize_graph


def separable(channels: int, stride: int = 1) -> Sequential:
    """MobileNet-style depthwise-separable block."""
    return Sequential(
        DepthwiseConv2d(3, stride=stride, padding=1, bias=False),
        BatchNorm2d(), ReLU6(),
        Conv2d(channels, 1, bias=False),
        BatchNorm2d(), ReLU6(),
    )


def main() -> None:
    # -- 1. "Training side": define and export a small edge CNN ------------
    net = Sequential(
        Conv2d(16, 3, stride=2, padding=1, bias=False),
        BatchNorm2d(), ReLU(),
        separable(32), separable(64, stride=2), separable(64),
        GlobalAvgPool2d(), Flatten(), Linear(10), Softmax(),
    )
    onnx_bytes = export_onnx(net, (1, 3, 96, 96), name="edge-cnn", seed=7)
    print(f"exported ONNX model: {len(onnx_bytes) / 1024:.1f} KiB")

    # -- 2. Import + simplify ----------------------------------------------
    graph = load_model_bytes(onnx_bytes)
    pipeline = default_pipeline()
    optimized = pipeline.run(graph)
    print(f"imported {len(graph.nodes)} nodes -> {len(optimized.nodes)} "
          f"after simplification ({pipeline.last_report})")

    # -- 3. Calibrate + quantize -------------------------------------------
    calibration = [
        {"input": synthetic_image_batch((1, 3, 96, 96), seed=seed)}
        for seed in range(4)
    ]
    ranges = calibrate(optimized, calibration)
    quantized, report = quantize_graph(optimized, ranges)
    print(f"quantization: {report}")

    # -- 4. Compare deployment variants -------------------------------------
    x = synthetic_image_batch((1, 3, 96, 96), seed=99)
    feed = {"input": x}
    print()
    print(f"{'variant':<12} {'median ms':>10} {'weights KiB':>12} "
          f"{'peak KiB':>10} {'energy mJ':>10}  top-1")
    for label, g, quantized_flag in (
        ("raw", graph, False),
        ("optimized", optimized, False),
        ("int8", quantized, True),
    ):
        session = InferenceSession(g, optimize=False)
        out = session.run(feed)["output"]
        times = sorted(session.time(feed, repeats=7, warmup=2))
        report_fp = footprint(g, label)
        energy = estimate_energy_mj(g, quantized=quantized_flag)
        print(f"{label:<12} {1e3 * times[len(times) // 2]:>10.2f} "
              f"{report_fp.weight_bytes / 1024:>12.0f} "
              f"{report_fp.peak_live_bytes / 1024:>10.0f} "
              f"{energy:>10.3f}  {out.argmax():>5}")

    f32 = InferenceSession(optimized, optimize=False).run(feed)["output"]
    int8 = InferenceSession(quantized, optimize=False).run(feed)["output"]
    print(f"\nint8 vs f32: top-1 {'agrees' if f32.argmax() == int8.argmax() else 'DIFFERS'}, "
          f"max |p| error {np.abs(f32 - int8).max():.4f}")


if __name__ == "__main__":
    main()
