"""GEMM convolution (im2col lowering).

This is *the* Orpheus convolution in the paper's evaluation: "Orpheus uses
GEMM convolution, which pays off for big matrices". Each image's input is
lowered to a ``(C*KH*KW, OH*OW)`` column matrix and the whole convolution
becomes one large matrix multiply per image (per group), which BLAS
executes at near-peak efficiency when the matrices are large (big channel
counts / feature maps).

Two variants are registered:

* ``im2col`` — writes only its output. Per image, the row-padded planes
  and the column matrix are carved from the context's one workspace
  (:meth:`~repro.kernels.context.ExecutionContext.workspace`, shared with
  ``direct_dw``). A row-padded plane is one flat run per channel: a zero
  head, the image copied in as one contiguous run and a zero tail, read
  with row pitch ``W``, so taps above and below the image read zeros. One
  strided copy of a tap view fills the columns, and a few cached *edge
  masks* then zero the columns whose taps fall left or right of the
  image (those read the neighbouring row). A stride-1 conv whose output
  is as wide as its input copies each tap as one plane-long run. BLAS
  writes the product straight into the output; bias, fused residual and
  fused activation are applied in place to that image's slice while it
  is still in cache. An unpadded 1x1 stride-1 conv multiplies the input
  itself. Steady-state calls allocate nothing but the output.
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


def _taps(source: np.ndarray, params: ConvParams,
          strides: tuple[int, int, int]) -> np.ndarray:
    """``(C, KH, KW, OH, OW)`` strided view of every kernel tap of one
    image: the column block, uncopied. ``strides`` are the source's
    channel, row and column steps in bytes; over row-padded planes the row
    step is ``W`` floats, so padded position ``(py, px)`` sits at flat
    ``py * W + px``."""
    kh, kw = params.kernel
    sh, sw = params.strides
    dh, dw = params.dilations
    s_c, s_h, s_w = strides
    return np.lib.stride_tricks.as_strided(
        source, (params.in_channels, kh, kw, params.out_h, params.out_w),
        (s_c, dh * s_h, dw * s_w, sh * s_h, sw * s_w), writeable=False)


def _edge_masks(cols: np.ndarray, params: ConvParams) -> tuple:
    """Column views whose taps lie left or right of the image.

    Over row-padded planes those taps read the neighbouring row's pixels
    instead of zeros: for each ``kx``, the first ``ceil((l - kx*dw)/sw)``
    output columns and those from ``ceil((W + l - kx*dw)/sw)`` on. Empty
    when the conv has no left or right pad.
    """
    left = params.pads[1]
    sw, dw = params.strides[1], params.dilations[1]
    out_w = params.out_w
    masks = []
    for kx in range(params.kernel[1]):
        first = min(out_w, max(0, -(-(left - kx * dw) // sw)))
        last = max(first, min(out_w, -(-(params.in_w + left - kx * dw) // sw)))
        if first:
            masks.append(cols[:, :, kx, :, :first])
        if last < out_w:
            masks.append(cols[:, :, kx, :, last:])
    return tuple(masks)


def _workspace_views(buffer: np.ndarray, params: ConvParams, plane: int):
    """``(borders, interior, taps, cols, masks, matrix)`` carved from one
    workspace.

    With pads, each channel's row-padded plane is one flat run of
    ``plane = l + (t+H+b)*W + r`` floats: a zero head (``borders[0]``),
    the image (``interior``, one contiguous run) and a zero tail
    (``borders[1]``). ``taps`` is :func:`_taps` over the planes with row
    pitch ``W`` (None when unpadded, where it must view each image
    itself); ``cols`` is the column block it is copied into and ``masks``
    the column views :func:`_edge_masks` zeroes afterwards. ``matrix`` is
    the ``(C*KH*KW, OH*OW)`` operand the GEMM reads.
    """
    channels, in_h, in_w = params.in_channels, params.in_h, params.in_w
    top, left, _, _ = params.pads
    kh, kw = params.kernel
    cut = channels * plane
    borders, interior, taps = (), None, None
    if plane:
        planes = buffer[:cut].reshape(channels, plane)
        start, stop = left + top * in_w, left + (top + in_h) * in_w
        borders = tuple(strip for strip in (planes[:, :start], planes[:, stop:])
                        if strip.size)
        interior = planes[:, start:stop].reshape(channels, in_h, in_w)
        step = planes.strides[1]
        taps = _taps(planes, params, (planes.strides[0], in_w * step, step))
    pixels = params.out_h * params.out_w
    cols = buffer[cut:cut + channels * kh * kw * pixels].reshape(
        channels, kh, kw, params.out_h, params.out_w)
    return (borders, interior, taps, cols, _edge_masks(cols, params),
            cols.reshape(channels * kh * kw, pixels))


@kernel("Conv", "im2col", priority=100)
def conv_im2col(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """im2col + GEMM convolution (the Orpheus default).

    Per image: the input is copied into the workspace's row-padded planes
    as one run per channel (the zero head and tail are refilled once per
    call), one strided copy of the ``(C, KH, KW, OH, OW)`` tap view fills
    the column block, the edge masks zero the columns whose taps fall
    left or right of the image, and ``W.reshape(O, C*KH*KW) @ cols`` lands
    in ``out[n]``. A stride-1 conv whose output is as wide as its input
    copies each tap as one plane-long run. Group ``g`` multiplies its
    slice of the weight by rows ``g*K/G .. (g+1)*K/G`` of that one
    lowering, which are exactly its channels' taps. The weight is used as
    stored: bias is a separate in-place add rather than a row of ones,
    which would need a second, augmented copy of every conv weight. The
    planes, columns, masks and tap view are built once per workspace
    buffer (:meth:`~repro.kernels.context.ExecutionContext.workspace_views`),
    the geometry once per context.
    """
    x, weight, bias, residual = conv_operands(inputs)
    params, activation = conv_geometry(node, x.shape, weight.shape, ctx)
    kh, kw = params.kernel
    top, left, bottom, right = params.pads
    channels = params.in_channels
    out_h, out_w = params.out_h, params.out_w
    rows, pixels = channels * kh * kw, out_h * out_w
    lowered = (kh, kw, *params.strides, *params.pads) != (1, 1, 1, 1, 0, 0, 0, 0)

    if lowered:
        plane = (left + (top + params.in_h + bottom) * params.in_w + right
                 if any(params.pads) else 0)
        borders, interior, taps, cols, masks, matrix = ctx.workspace_views(
            ("im2col", node.name, x.shape, weight.shape),
            channels * plane + rows * pixels, x.dtype,
            lambda buffer: _workspace_views(buffer, params, plane))
        for strip in borders:
            strip.fill(0)

    group = params.group
    out_channels = params.out_channels
    k_g, o_g = rows // group, out_channels // group
    w_matrix = weight.reshape(out_channels, k_g)
    out = np.empty((params.batch, out_channels, out_h, out_w), dtype=x.dtype)
    for n in range(params.batch):
        if lowered:
            if interior is not None:
                np.copyto(interior, x[n])
            np.copyto(cols, taps if taps is not None
                      else _taps(x[n], params, x[n].strides))
            for mask in masks:
                mask.fill(0)
            source = matrix
        else:
            source = x[n].reshape(rows, pixels)
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
