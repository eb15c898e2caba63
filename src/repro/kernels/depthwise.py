"""Depthwise convolution kernels.

Depthwise convolutions (group == channels) dominate MobileNet-class models,
and their implementation quality decides those models' inference time — the
paper's evaluation shows PyTorch "performs poorly for MobileNetV1 because of
an inefficient implementation of the depthwise convolution". Three
implementations are provided:

* ``direct_dw`` — lower, then multiply (Orpheus/TVM quality). A block of
  channels sized to stay cache-resident is lowered to columns with one
  copy per kernel tap, and the whole block is produced by **one** batched
  matrix-vector product in which BLAS does the multiply, the accumulation
  over taps and (through a column of ones) the bias add. It pays its
  Python-level dispatch once per *block* — 2 to 32 of them per
  MobileNetV1 layer.
* ``perchannel_gemm_dw`` — the same lowering idea done the way a generic
  grouped-convolution fallback does it: a Python loop over channels, each
  running its own 1-channel im2col + GEMM, so the dispatch is paid once
  per *channel* (up to 1024 of them) and nothing is shared between
  channels. That per-channel dispatch, not the arithmetic, is what made
  PyTorch slow; registered ``experimental`` so only the PyTorch framework
  simulation selects it.
* the generic grouped path in :mod:`repro.kernels.conv_im2col` also covers
  depthwise (as ``group`` loops) and acts as the correctness baseline.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ir.node import Node
from repro.kernels.common import (
    conv_geometry,
    conv_operands,
    conv_params,
    finalize_conv,
    im2col,
    pad_input,
)
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import kernel

#: Workspace floats one channel block of ``direct_dw`` may occupy: its
#: padded planes, lowered columns and result together, ~1 MB of float32, so
#: the taps are copied out of and multiplied back from L2 instead of DRAM.
#: Measured on MobileNetV1's thirteen layers (sum, ms): 64 K floats 14.6,
#: 128 K 11.3, 192 K 10.4, 256 K 10.4, 384 K 10.7, 512 K 11.4, 1 M 12.8 —
#: smaller blocks pay more dispatches, larger ones fall out of cache.
_BLOCK_FLOATS = 256 * 1024


def _is_depthwise(node: Node, shapes: Sequence[tuple[int, ...]]) -> bool:
    group = node.attrs.get_int("group", 1)
    if group == 1 or len(shapes) < 2 or len(shapes[0]) != 4:
        return False
    in_channels = shapes[0][1]
    out_channels = shapes[1][0]
    return group == in_channels and out_channels == in_channels


def _pack_taps(weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """``(C, 1, taps + 1)``: each channel's taps, its bias as the last column."""
    channels = weight.shape[0]
    taps = weight[0].size
    w_aug = np.zeros((channels, 1, taps + 1), dtype=weight.dtype)
    w_aug[:, 0, :taps] = weight.reshape(channels, taps)
    if bias is not None:
        w_aug[:, 0, taps] = bias
    return w_aug


@kernel("Conv", "direct_dw", priority=90, applicable=_is_depthwise)
def conv_direct_depthwise(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """Depthwise convolution: lower a channel block, one batched GEMV.

    Per block of ``n`` channels the zero-padded planes are copied into the
    workspace, their ``KH*KW`` shifted views into an ``(n, KH*KW + 1, P)``
    column block whose last row is ones, and ``w_aug[c0:c1] @ cols`` yields
    the biased output of all ``n`` channels in one call. Copies may be
    strided; every arithmetic pass is BLAS or runs over long contiguous
    rows, which is where numpy is fast.

    Two lowerings, chosen by the node's stride. Stride (1, 1): a padded
    plane is one flat row of ``Hp*Wp``, tap ``(ky, kx)`` is the contiguous
    slice starting at ``ky*dh*Wp + kx*dw``, so each tap is ``n`` long runs;
    the result keeps row pitch ``Wp`` and the ``Wp - OW`` wrap-around
    columns per row are dropped by the one strided copy into the output.
    Any other stride: windowed copies, and the product lands directly in
    the output. Kernel size, dilation, pads, batch and dtype are free.

    All blocks of all depthwise nodes carve their buffers from the
    context's one workspace per dtype (:meth:`ExecutionContext.workspace`,
    shared with ``im2col``; every call writes what it reads, so nothing
    carries over), under the same rule as ``qconv``'s arenas: one runner
    per context at a time.
    The tap pack is derived from *these* weight and bias arrays and is
    rebuilt if the node is ever handed different ones.
    """
    x, weight, bias, residual = conv_operands(inputs)
    params, activation = conv_geometry(node, x.shape, weight.shape, ctx)
    channels = params.out_channels
    kh, kw = params.kernel
    sh, sw = params.strides
    dh, dw = params.dilations
    top, left, bottom, right = params.pads
    in_h, in_w, out_h, out_w = params.in_h, params.in_w, params.out_h, params.out_w
    pad_h, pad_w = in_h + top + bottom, in_w + left + right
    taps = kh * kw
    flat = (sh, sw) == (1, 1)
    # Lowered columns per channel, and the pitch of one channel's result
    # rows in the workspace (the windowed product needs none).
    width = (out_h - 1) * pad_w + out_w if flat else out_h * out_w
    pitch = out_h * pad_w if flat else 0
    per_channel = pad_h * pad_w + (taps + 1) * width + pitch
    block = max(1, min(channels, _BLOCK_FLOATS // per_channel))
    w_aug = ctx.derived(("dw_pack", node.name), (weight, bias),
                        lambda: _pack_taps(weight, bias))

    buffer = ctx.workspace(block * per_channel, x.dtype)
    cut_planes = block * pad_h * pad_w
    cut_cols = cut_planes + block * (taps + 1) * width
    planes = buffer[:cut_planes].reshape(block, pad_h, pad_w)
    cols = buffer[cut_planes:cut_cols].reshape(block, taps + 1, width)
    rows = buffer[cut_cols:cut_cols + block * pitch].reshape(block, 1, pitch)

    out = np.empty((params.batch, channels, out_h, out_w), dtype=x.dtype)
    for image in range(params.batch):
        for c0 in range(0, channels, block):
            c1 = min(c0 + block, channels)
            n = c1 - c0                     # the last block may be short
            planes_n, cols_n = planes[:n], cols[:n]
            planes_n[...] = 0
            planes_n[:, top:top + in_h, left:left + in_w] = x[image, c0:c1]
            cols_n[:, taps] = 1
            if flat:
                source = planes_n.reshape(n, pad_h * pad_w)
                for ky in range(kh):
                    for kx in range(kw):
                        start = ky * dh * pad_w + kx * dw
                        np.copyto(cols_n[:, ky * kw + kx],
                                  source[:, start:start + width])
                result = rows[:n, :, :width]
            else:
                cols4 = cols_n.reshape(n, taps + 1, out_h, out_w)
                for ky in range(kh):
                    for kx in range(kw):
                        y0, x0 = ky * dh, kx * dw
                        np.copyto(cols4[:, ky * kw + kx],
                                  planes_n[:, y0:y0 + sh * out_h:sh,
                                           x0:x0 + sw * out_w:sw])
                result = out[image, c0:c1].reshape(n, 1, width)
            np.matmul(w_aug[c0:c1], cols_n, out=result)
            if flat:
                np.copyto(out[image, c0:c1],
                          rows[:n].reshape(n, out_h, pad_w)[:, :, :out_w])
            finalize_conv(  # bias rode in the GEMV
                out[image, c0:c1], None,
                None if residual is None else residual[image, c0:c1],
                activation)
    return [out]


@kernel("Conv", "perchannel_gemm_dw", priority=-10, applicable=_is_depthwise,
        experimental=True)
def conv_perchannel_gemm_depthwise(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """Per-channel im2col+GEMM loop — the inefficient framework fallback.

    Each channel pays a full im2col/GEMM dispatch for a 1-channel problem;
    with hundreds of channels the per-call overhead dominates, reproducing
    the PyTorch MobileNetV1 pathology from the paper's Figure 2.
    """
    x, weight, bias, residual = conv_operands(inputs)
    params, activation = conv_geometry(node, x.shape, weight.shape, ctx)
    padded = pad_input(x, params.pads)
    single = conv_params(
        node, (params.batch, 1, params.in_h, params.in_w),
        (1, 1, params.kernel[0], params.kernel[1]))
    out = np.empty(
        (params.batch, params.out_channels, params.out_h, params.out_w),
        dtype=x.dtype,
    )
    for channel in range(params.out_channels):
        x_slice = np.ascontiguousarray(padded[:, channel:channel + 1])
        columns = im2col(x_slice, single)  # (N, KH*KW, OH*OW)
        w_row = weight[channel].reshape(1, -1)  # (1, KH*KW)
        product = np.matmul(w_row, columns)  # (N, 1, OH*OW)
        out[:, channel] = product.reshape(
            params.batch, params.out_h, params.out_w)
    return [finalize_conv(out, bias, residual, activation)]
