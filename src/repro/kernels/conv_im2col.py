"""GEMM convolution (im2col lowering).

This is *the* Orpheus convolution in the paper's evaluation: "Orpheus uses
GEMM convolution, which pays off for big matrices". Each image's input is
lowered to a ``(C*KH*KW, OH*OW)`` column matrix and the whole convolution
becomes one large matrix multiply per image (per group), which BLAS
executes at near-peak efficiency when the matrices are large (big channel
counts / feature maps).

Two variants are registered:

* ``im2col`` — writes only its output. Per image, the zero-padded planes
  and the column matrix are carved from the context's one workspace
  (:meth:`~repro.kernels.context.ExecutionContext.workspace`, shared with
  ``direct_dw``) with one copy per kernel tap; BLAS writes the product
  straight into the output; bias and fused activation are applied in place
  to that image's slice while it is still in cache. A 1x1 stride-1 conv
  multiplies the input itself. Steady-state calls allocate nothing but the
  output.
* ``im2col_loops`` — the same math with a freshly padded input and a
  freshly allocated, loop-built lowering of the whole batch per group, and
  the epilogue as passes over the finished output: the memory-traffic
  profile of a C ``im2col`` that was not cache-blocked, and the building
  block of the PyTorch and DarkNet framework simulations.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ir.node import Node
from repro.kernels.common import (
    conv_params,
    finalize_conv,
    im2col_loops,
    pad_input,
)
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import kernel


@kernel("Conv", "im2col", priority=100)
def conv_im2col(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """im2col + GEMM convolution (the Orpheus default).

    Per image: the input is copied into the workspace's padded planes
    (only the border is zeroed, the interior is overwritten), each of the
    ``KH*KW`` taps is one strided copy into the ``(C, KH, KW, OH, OW)``
    column block, and ``W.reshape(O, C*KH*KW) @ cols`` lands in
    ``out[n]``. Group ``g`` multiplies its slice of the weight by rows
    ``g*K/G .. (g+1)*K/G`` of that one lowering, which are exactly its
    channels' taps. The weight is used as stored: bias is a separate
    in-place add rather than a row of ones, which would need a second,
    augmented copy of every conv weight.
    """
    x, weight = inputs[0], inputs[1]
    bias = inputs[2] if len(inputs) > 2 else None
    params = conv_params(node, x.shape, weight.shape)
    kh, kw = params.kernel
    sh, sw = params.strides
    dh, dw = params.dilations
    top, left, bottom, right = params.pads
    channels, in_h, in_w = params.in_channels, params.in_h, params.in_w
    out_h, out_w = params.out_h, params.out_w
    pad_h, pad_w = in_h + top + bottom, in_w + left + right
    rows, pixels = channels * kh * kw, out_h * out_w
    lowered = (kh, kw, sh, sw) != (1, 1, 1, 1)

    cut = channels * pad_h * pad_w if any(params.pads) else 0
    buffer = ctx.workspace(cut + (rows * pixels if lowered else 0), x.dtype)
    planes = buffer[:cut].reshape(channels, pad_h, pad_w) if cut else None
    cols = buffer[cut:cut + rows * pixels].reshape(
        channels, kh, kw, out_h, out_w) if lowered else None

    group = params.group
    out_channels = params.out_channels
    k_g, o_g = rows // group, out_channels // group
    w_matrix = weight.reshape(out_channels, k_g)
    out = np.empty((params.batch, out_channels, out_h, out_w), dtype=x.dtype)
    for n in range(params.batch):
        source = x[n]
        if planes is not None:
            planes[:, :top] = 0
            planes[:, top + in_h:] = 0
            planes[:, top:top + in_h, :left] = 0
            planes[:, top:top + in_h, left + in_w:] = 0
            planes[:, top:top + in_h, left:left + in_w] = source
            source = planes
        if cols is not None:
            for ky in range(kh):
                for kx in range(kw):
                    y0, x0 = ky * dh, kx * dw
                    np.copyto(cols[:, ky, kx],
                              source[:, y0:y0 + sh * out_h:sh,
                                     x0:x0 + sw * out_w:sw])
            source = cols
        matrix = source.reshape(rows, pixels)
        result = out[n].reshape(out_channels, pixels)
        for g in range(group):
            ctx.matmul(w_matrix[g * o_g:(g + 1) * o_g],
                       matrix[g * k_g:(g + 1) * k_g],
                       out=result[g * o_g:(g + 1) * o_g])
        finalize_conv(out[n:n + 1], bias, node)
    return [out]


@kernel("Conv", "im2col_loops", priority=10)
def conv_im2col_loops(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """im2col built with explicit per-offset copies + GEMM."""
    x, weight = inputs[0], inputs[1]
    bias = inputs[2] if len(inputs) > 2 else None
    params = conv_params(node, x.shape, weight.shape)
    padded = pad_input(x, params.pads)
    group = params.group
    out = np.empty(
        (params.batch, params.out_channels, params.out_h * params.out_w),
        dtype=x.dtype,
    )
    ch_per_group = params.in_channels // group
    out_per_group = params.out_channels // group
    for g in range(group):
        x_slice = padded[:, g * ch_per_group:(g + 1) * ch_per_group]
        columns = im2col_loops(x_slice, params)  # (N, C/g*KH*KW, OH*OW)
        w_slice = weight[g * out_per_group:(g + 1) * out_per_group]
        w_matrix = w_slice.reshape(out_per_group, -1)  # (O/g, C/g*KH*KW)
        for n in range(params.batch):
            ctx.matmul(w_matrix, columns[n],
                       out=out[n, g * out_per_group:(g + 1) * out_per_group])
    result = out.reshape(
        params.batch, params.out_channels, params.out_h, params.out_w)
    return [finalize_conv(result, bias, node)]
