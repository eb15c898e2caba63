"""Ablation: depthwise convolution implementations.

The mechanism behind PyTorch's MobileNetV1 collapse in Figure 2: the
vectorised ``direct_dw`` against the per-channel GEMM loop a generic
grouped-conv fallback produces (and the fully general grouped im2col path).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import bench_rounds
from repro.bench.layerwise import ConvCase
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import REGISTRY

# MobileNetV1's nine distinct depthwise shapes at 224x224 (channels, input
# size, stride); 512x14 stride 1 occurs five times, the others once.
_DW_LAYERS = (
    (32, 112, 1),
    (64, 112, 2),
    (128, 56, 1),
    (128, 56, 2),
    (256, 28, 1),
    (256, 28, 2),
    (512, 14, 1),
    (512, 14, 2),
    (1024, 7, 1),
)
_IMPLS = ("direct_dw", "perchannel_gemm_dw", "im2col")

_GRID = [((ch, size, stride), impl)
         for ch, size, stride in _DW_LAYERS
         for impl in _IMPLS]


@pytest.mark.parametrize(
    "layer,impl", _GRID,
    ids=[f"dw{ch}x{size}s{stride}-{impl}"
         for (ch, size, stride), impl in _GRID])
def test_depthwise_impl(benchmark, layer, impl):
    channels, size, stride = layer
    case = ConvCase(
        f"dw {channels}x{size}", (1, channels, size, size),
        (channels, 1, 3, 3), stride=stride, group=channels)
    node = case.node()
    kernel = REGISTRY.get("Conv", impl)
    shapes = [case.input_shape, case.weight_shape]
    if not kernel.supports(node, shapes):
        pytest.skip(f"{impl} inapplicable")
    rng = np.random.default_rng(1)
    x = rng.standard_normal(case.input_shape).astype(np.float32)
    w = rng.standard_normal(case.weight_shape).astype(np.float32)
    ctx = ExecutionContext()
    kernel.fn([x, w], node, ctx)
    benchmark.group = f"depthwise:{channels}x{size}/s{stride}"
    benchmark.extra_info["impl"] = impl
    benchmark.pedantic(
        kernel.fn, args=([x, w], node, ctx),
        rounds=bench_rounds(), warmup_rounds=1)
