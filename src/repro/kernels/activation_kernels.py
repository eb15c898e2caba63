"""Activation and unary math kernels."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ir.node import Node
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import kernel


@kernel("Relu", "default", priority=100)
def relu(inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext) -> list[np.ndarray]:
    return [np.maximum(inputs[0], 0)]


@kernel("LeakyRelu", "default", priority=100)
def leaky_relu(inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext) -> list[np.ndarray]:
    x = inputs[0]
    alpha = node.attrs.get_float("alpha", 0.01)
    return [np.where(x >= 0, x, np.asarray(alpha, dtype=x.dtype) * x)]


@kernel("Clip", "default", priority=100)
def clip(inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext) -> list[np.ndarray]:
    """Clip with bounds from attributes (opset<11) or inputs (opset>=11)."""
    x = inputs[0]
    low: float | np.ndarray | None = None
    high: float | np.ndarray | None = None
    if len(inputs) > 1 and inputs[1] is not None and inputs[1].size:
        low = inputs[1]
    elif "min" in node.attrs:
        low = node.attrs.get_float("min")
    if len(inputs) > 2 and inputs[2] is not None and inputs[2].size:
        high = inputs[2]
    elif "max" in node.attrs:
        high = node.attrs.get_float("max")
    return [np.clip(x, low, high)]


@kernel("Sigmoid", "default", priority=100)
def sigmoid(inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext) -> list[np.ndarray]:
    x = inputs[0]
    # Split positive/negative branches for numerical stability.
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return [out]


@kernel("Tanh", "default", priority=100)
def tanh(inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext) -> list[np.ndarray]:
    return [np.tanh(inputs[0])]


@kernel("Softmax", "default", priority=100)
def softmax(inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext) -> list[np.ndarray]:
    """Numerically stable softmax along ``axis`` (default -1, opset 13)."""
    x = inputs[0]
    axis = node.attrs.get_int("axis", -1)
    shifted = x - x.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return [(exps / exps.sum(axis=axis, keepdims=True)).astype(x.dtype, copy=False)]


@kernel("Exp", "default", priority=100)
def exp(inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext) -> list[np.ndarray]:
    return [np.exp(inputs[0])]


@kernel("Sqrt", "default", priority=100)
def sqrt(inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext) -> list[np.ndarray]:
    return [np.sqrt(inputs[0])]


@kernel("Neg", "default", priority=100)
def neg(inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext) -> list[np.ndarray]:
    return [-inputs[0]]


@kernel("Abs", "default", priority=100)
def abs_(inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext) -> list[np.ndarray]:
    return [np.abs(inputs[0])]
