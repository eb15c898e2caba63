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
  ``direct_dw``), and one strided copy of a tap view fills the columns;
  BLAS writes the product straight into the output; bias, fused residual
  and fused activation are applied in place to that image's slice while it
  is still in cache. A 1x1 stride-1 conv multiplies the input itself.
  Steady-state calls allocate nothing but the output.
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
    ConvParams,
    conv_geometry,
    conv_operands,
    finalize_conv,
    im2col_loops,
    pad_input,
)
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import kernel


def _taps(source: np.ndarray, params: ConvParams) -> np.ndarray:
    """``(C, KH, KW, OH, OW)`` strided view of every kernel tap of one
    (already padded) ``(C, H, W)`` image: the column block, uncopied."""
    kh, kw = params.kernel
    sh, sw = params.strides
    dh, dw = params.dilations
    s_c, s_h, s_w = source.strides
    return np.lib.stride_tricks.as_strided(
        source, (source.shape[0], kh, kw, params.out_h, params.out_w),
        (s_c, dh * s_h, dw * s_w, sh * s_h, sw * s_w), writeable=False)


def _workspace_views(buffer: np.ndarray, params: ConvParams, cut: int,
                     lowered: bool):
    """``(borders, interior, taps, cols, matrix)`` carved from one workspace.

    ``borders`` are the padded planes' zero strips and ``interior`` the
    window each image is copied into (``()`` and None when unpadded);
    ``taps`` is :func:`_taps` over the planes (None when unpadded, where it
    must view each image itself) and ``cols`` the column block it is
    copied into (None when not lowered). ``matrix`` is the ``(C*KH*KW,
    OH*OW)`` operand the GEMM reads: the columns, else the planes, else
    None (the image itself).
    """
    channels, in_h, in_w = params.in_channels, params.in_h, params.in_w
    top, left, bottom, right = params.pads
    kh, kw = params.kernel
    pixels = params.out_h * params.out_w
    borders, interior, taps, cols, matrix = (), None, None, None, None
    if cut:
        planes = buffer[:cut].reshape(
            channels, in_h + top + bottom, in_w + left + right)
        rows = planes[:, top:top + in_h]
        strips = (planes[:, :top], planes[:, top + in_h:],
                  rows[:, :, :left], rows[:, :, left + in_w:])
        borders = tuple(strip for strip in strips if strip.size)
        interior = rows[:, :, left:left + in_w]
        if lowered:
            taps = _taps(planes, params)
        else:
            matrix = planes.reshape(channels, pixels)
    if lowered:
        cols = buffer[cut:cut + channels * kh * kw * pixels].reshape(
            channels, kh, kw, params.out_h, params.out_w)
        matrix = cols.reshape(channels * kh * kw, pixels)
    return borders, interior, taps, cols, matrix


@kernel("Conv", "im2col", priority=100)
def conv_im2col(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """im2col + GEMM convolution (the Orpheus default).

    Per image: the input is copied into the workspace's padded planes
    (only the border is zeroed, the interior is overwritten), one strided
    copy of the ``(C, KH, KW, OH, OW)`` tap view fills the column block,
    and ``W.reshape(O, C*KH*KW) @ cols`` lands in ``out[n]``. Group ``g``
    multiplies its slice of the weight by rows ``g*K/G .. (g+1)*K/G`` of
    that one lowering, which are exactly its channels' taps. The weight is
    used as stored: bias is a separate in-place add rather than a row of
    ones, which would need a second, augmented copy of every conv weight.
    The planes, columns and tap view are built once per workspace buffer
    (:meth:`~repro.kernels.context.ExecutionContext.workspace_views`), the
    geometry once per context.
    """
    x, weight, bias, residual = conv_operands(inputs)
    params, activation = conv_geometry(node, x.shape, weight.shape, ctx)
    kh, kw = params.kernel
    top, left, bottom, right = params.pads
    channels = params.in_channels
    out_h, out_w = params.out_h, params.out_w
    rows, pixels = channels * kh * kw, out_h * out_w
    lowered = (kh, kw, *params.strides) != (1, 1, 1, 1)

    cut = (channels * (params.in_h + top + bottom) * (params.in_w + left + right)
           if any(params.pads) else 0)
    borders, interior, taps, cols, matrix = ctx.workspace_views(
        ("im2col", node.name, x.shape, weight.shape),
        cut + (rows * pixels if lowered else 0), x.dtype,
        lambda buffer: _workspace_views(buffer, params, cut, lowered))

    group = params.group
    out_channels = params.out_channels
    k_g, o_g = rows // group, out_channels // group
    w_matrix = weight.reshape(out_channels, k_g)
    out = np.empty((params.batch, out_channels, out_h, out_w), dtype=x.dtype)
    for n in range(params.batch):
        if interior is not None:
            for strip in borders:
                strip.fill(0)
            np.copyto(interior, x[n])
        if cols is not None:
            np.copyto(cols, taps if taps is not None else _taps(x[n], params))
        source = matrix if matrix is not None else x[n].reshape(rows, pixels)
        result = out[n].reshape(out_channels, pixels)
        for g in range(group):
            ctx.matmul(w_matrix[g * o_g:(g + 1) * o_g],
                       source[g * k_g:(g + 1) * k_g],
                       out=result[g * o_g:(g + 1) * o_g])
        finalize_conv(out[n:n + 1], bias,
                      None if residual is None else residual[n:n + 1],
                      activation)
    return [out]


@kernel("Conv", "im2col_loops", priority=10)
def conv_im2col_loops(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """im2col built with explicit per-offset copies + GEMM."""
    x, weight, bias, residual = conv_operands(inputs)
    params, activation = conv_geometry(node, x.shape, weight.shape, ctx)
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
    return [finalize_conv(result, bias, residual, activation)]
