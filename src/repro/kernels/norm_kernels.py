"""Normalisation kernel: BatchNormalization (inference mode)."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ir.node import Node
from repro.kernels.common import apply_activation
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import kernel


def _affine(x: np.ndarray, node: Node, scale, bias, mean, var):
    """``(multiplier, offset)`` in ``x``'s dtype, shaped to broadcast per channel."""
    epsilon = node.attrs.get_float("epsilon", 1e-5)
    inv_std = 1.0 / np.sqrt(var.astype(np.float64) + epsilon)
    channel_shape = (1, -1) + (1,) * (x.ndim - 2)
    multiplier = (scale * inv_std).astype(x.dtype)
    offset = (bias - mean * scale * inv_std).astype(x.dtype)
    return multiplier.reshape(channel_shape), offset.reshape(channel_shape)


@kernel("BatchNormalization", "default", priority=100)
def batch_norm(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """Inference-mode batch norm: ``scale * (x - mean) / sqrt(var + eps) + bias``.

    The per-channel affine is precomputed into a single multiply-add, the
    same strength reduction the fold-batchnorm graph pass performs
    statically when a Conv precedes it; it is derived once per context
    from the four parameter arrays. ``x * multiplier + offset`` and a fused
    ``activation`` (``FuseEpilogues`` folds a following Relu/Relu6 in) are
    written into one allocation.
    """
    x, scale, bias, mean, var = inputs[:5]
    multiplier, offset = ctx.derived(
        ("bn_affine", node.name, x.ndim, x.dtype.str), (scale, bias, mean, var),
        lambda: _affine(x, node, scale, bias, mean, var))
    out = np.multiply(x, multiplier)
    out += offset
    return [apply_activation(out, node.attrs.get_str("activation", ""))]
