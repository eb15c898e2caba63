"""Winograd F(2x2, 3x3) convolution, flattened-transform formulation.

Winograd's minimal filtering algorithm computes each 2x2 output tile of a
3x3/stride-1 convolution with 16 multiplies instead of 36:

    Y = A^T [ (G g G^T) (.) (B^T d B) ] A

This implementation uses the *flattened* form production runtimes (TVM,
NNPACK, oneDNN) generate:

* input tiles are gathered straight into transform-major layout
  ``(16, C, tiles)`` — 16 contiguous strided copies, no im2col blow-up;
* the 4x4 input/output transforms are precomputed 16x16 / 4x16 matrices, so
  each transform is a single GEMM over all tiles at once;
* the per-tile elementwise product becomes 16 batched channel-contraction
  GEMMs of shape ``(O, C) @ (C, tiles)``;
* the filter transform ``U = G g G^T`` depends only on the weights and is
  cached in the execution context — the AOT weight-layout step — as a
  value *derived from* the weight array, recomputed if the node is ever
  handed a different one.

Only applicable to 3x3, stride 1, dilation 1, ungrouped convolutions.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ir.node import Node
from repro.kernels.common import conv_geometry, conv_operands, finalize_conv, pad_input
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import kernel

_G = np.array(
    [[1.0, 0.0, 0.0],
     [0.5, 0.5, 0.5],
     [0.5, -0.5, 0.5],
     [0.0, 0.0, 1.0]])
_BT = np.array(
    [[1.0, 0.0, -1.0, 0.0],
     [0.0, 1.0, 1.0, 0.0],
     [0.0, -1.0, 1.0, 0.0],
     [0.0, 1.0, 0.0, -1.0]])
_AT = np.array(
    [[1.0, 1.0, 1.0, 0.0],
     [0.0, 1.0, -1.0, -1.0]])

# Flattened transforms over row-major-vectorised 4x4 tiles:
# vec(B^T d B) = (B^T (x) B^T) vec(d);  vec(A^T m A) = (A^T (x) A^T) vec(m).
_BB = np.kron(_BT, _BT)                      # (16, 16)
_AA = np.kron(_AT, _AT)                      # (4, 16)


def _winograd_applicable(node: Node, shapes: Sequence[tuple[int, ...]]) -> bool:
    if node.attrs.get_int("group", 1) != 1:
        return False
    if tuple(node.attrs.get_ints("strides", (1, 1))) != (1, 1):
        return False
    if tuple(node.attrs.get_ints("dilations", (1, 1))) != (1, 1):
        return False
    if len(shapes) < 2 or len(shapes[1]) != 4:
        return False
    return tuple(shapes[1][2:]) == (3, 3)


def _filter_transform(weight: np.ndarray, compute_dtype) -> np.ndarray:
    """U = G g G^T, laid out (16, O, C) for the batched contraction."""
    g_mat = _G.astype(compute_dtype)
    u = np.matmul(np.matmul(g_mat, weight.astype(compute_dtype)), g_mat.T)
    out_ch, in_ch = weight.shape[0], weight.shape[1]
    return np.ascontiguousarray(
        u.reshape(out_ch, in_ch, 16).transpose(2, 0, 1))


@kernel("Conv", "winograd", priority=70, applicable=_winograd_applicable)
def conv_winograd(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """F(2x2, 3x3) Winograd convolution with cached filter transform."""
    x, weight, bias, residual = conv_operands(inputs)
    params, activation = conv_geometry(node, x.shape, weight.shape, ctx)
    padded = pad_input(x, params.pads)
    batch, channels = params.batch, params.in_channels
    out_ch = params.out_channels
    out_h, out_w = params.out_h, params.out_w
    tiles_h = (out_h + 1) // 2
    tiles_w = (out_w + 1) // 2
    tiles = tiles_h * tiles_w
    extra_h = max(0, 2 * tiles_h + 2 - padded.shape[2])
    extra_w = max(0, 2 * tiles_w + 2 - padded.shape[3])
    if extra_h or extra_w:
        padded = np.pad(padded, ((0, 0), (0, 0), (0, extra_h), (0, extra_w)))

    compute_dtype = np.float64 if x.dtype == np.float64 else np.float32
    u = ctx.derived(
        ("winograd_u", node.name), (weight,),
        lambda: _filter_transform(weight, compute_dtype))  # (16, O, C)
    bb = _BB.astype(compute_dtype)
    aa = _AA.astype(compute_dtype)

    out = np.empty((batch, out_ch, out_h, out_w), dtype=x.dtype)
    gathered = np.empty((16, channels, tiles_h, tiles_w), dtype=compute_dtype)
    for n in range(batch):
        # Gather: tile pixel (ky, kx) of every tile, transform-major layout.
        for ky in range(4):
            for kx in range(4):
                gathered[ky * 4 + kx] = padded[
                    n, :, ky:ky + 2 * tiles_h:2, kx:kx + 2 * tiles_w:2]
        # Input transform: one GEMM across all channels and tiles.
        v = (bb @ gathered.reshape(16, -1)).reshape(16, channels, tiles)
        # Transform-domain channel contraction: 16 batched GEMMs.
        m = np.matmul(u, v)                                # (16, O, T)
        # Output transform: one GEMM, then scatter the 2x2 tiles.
        y = (aa @ m.reshape(16, -1)).reshape(4, out_ch, tiles_h, tiles_w)
        full_h, full_w = 2 * tiles_h, 2 * tiles_w
        if (full_h, full_w) == (out_h, out_w):
            target = out[n]
            for py in range(2):
                for px in range(2):
                    target[:, py::2, px::2] = y[py * 2 + px]
        else:
            scratch = np.empty((out_ch, full_h, full_w), dtype=compute_dtype)
            for py in range(2):
                for px in range(2):
                    scratch[:, py::2, px::2] = y[py * 2 + px]
            out[n] = scratch[:, :out_h, :out_w]
    return [finalize_conv(out, bias, residual, activation)]
