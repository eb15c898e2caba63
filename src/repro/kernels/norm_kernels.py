"""Normalisation kernel: BatchNormalization (inference mode)."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ir.node import Node
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import kernel


@kernel("BatchNormalization", "default", priority=100)
def batch_norm(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """Inference-mode batch norm: ``scale * (x - mean) / sqrt(var + eps) + bias``.

    The per-channel affine is precomputed into a single multiply-add, the
    same strength reduction the fold-batchnorm graph pass performs
    statically when a Conv precedes it.
    """
    x, scale, bias, mean, var = inputs[:5]
    epsilon = node.attrs.get_float("epsilon", 1e-5)
    inv_std = 1.0 / np.sqrt(var.astype(np.float64) + epsilon)
    multiplier = (scale * inv_std).astype(x.dtype)
    offset = (bias - mean * scale * inv_std).astype(x.dtype)
    channel_shape = (1, -1) + (1,) * (x.ndim - 2)
    out = x * multiplier.reshape(channel_shape) + offset.reshape(channel_shape)
    return [out]
