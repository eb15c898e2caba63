"""Indexing kernels: Slice and Gather."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ir.node import Node
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import kernel


def _int_list(inputs: Sequence[np.ndarray], index: int) -> list[int] | None:
    if len(inputs) <= index or inputs[index] is None or inputs[index].size == 0:
        return None
    return [int(v) for v in np.asarray(inputs[index]).reshape(-1)]


@kernel("Slice", "default", priority=100)
def slice_op(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """ONNX Slice: starts/ends/axes/steps as inputs (opset 10+) or attrs."""
    x = inputs[0]
    starts = _int_list(inputs, 1) or list(node.attrs.get_ints("starts"))
    ends = _int_list(inputs, 2) or list(node.attrs.get_ints("ends"))
    axes = _int_list(inputs, 3)
    if axes is None:
        axes = list(node.attrs.get_ints("axes", tuple(range(len(starts)))))
    steps = _int_list(inputs, 4)
    if steps is None:
        steps = list(node.attrs.get_ints("steps", (1,) * len(starts)))
    slicer: list[slice] = [slice(None)] * x.ndim
    for start, end, axis, step in zip(starts, ends, axes, steps):
        slicer[axis % x.ndim] = slice(start, end, step)
    return [np.ascontiguousarray(x[tuple(slicer)])]


@kernel("Gather", "default", priority=100)
def gather(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    x, indices = inputs[0], inputs[1]
    axis = node.attrs.get_int("axis", 0)
    return [np.take(x, indices.astype(np.int64), axis=axis)]
