"""Fast int8 convolution kernels: the `int8` backend's workhorses.

Three implementations register here on top of the exact reference kernels
in :mod:`repro.quant.qops`:

* ``QLinearConv:qgemm`` — im2col + float32 BLAS GEMM over the *raw*
  uint8 columns (zero-point correction folded into the augmented
  weight matrix's constant column), with a pointwise fast path that
  skips the gather entirely. All temporaries live in scratch arenas;
  the GEMM computes the requantization affine directly, leaving only a
  clip and a truncating cast as the epilogue. Each image is its own GEMM,
  so a row of a batch is bitwise that image's batch-1 answer.
* ``QLinearConv:qdirect_dw`` — depthwise convolution as nine (KH*KW)
  int16 tap multiplies accumulated exactly in int32. uint8 loads and
  int16 products halve the memory traffic of the float32 direct kernel,
  and the zero-point shift is folded away entirely.
* ``QuantizeLinear:fast`` / ``DequantizeLinear:fast`` — boundary casts
  with the affine map folded to (multiply, add) and no intermediate
  allocations.

Every kernel is applicability-gated (per-tensor activation params,
unit dilations, group == 1 or depthwise); anything else structurally
falls back down the chain to the exact ``default`` implementations —
degradation, never a crash.

Accumulation domains: the GEMM path sums int8*uint8 products in float32.
Individual products are exact; a dot product longer than ~2^24 / 32385
elements could in principle round intermediate sums, which is why the
accuracy-proxy battery measures the int8 path against fp32 end to end
rather than assuming bit-exactness. The depthwise path is exact: int16
products accumulated in int32, then requantized through the same
epilogue (KH*KW*32385 stays far below 2^31 and below float32's 2^24
integer range for every supported kernel size).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ir.node import Node
from repro.kernels.common import conv_params
from repro.kernels.context import ExecutionContext
from repro.kernels.qgemm import (
    batch_group,
    block_tiles,
    pack_qconv,
    requantize,
    scratch,
)
from repro.kernels.registry import kernel


def _unit_dilations(node: Node) -> bool:
    return tuple(node.attrs.get_ints("dilations", (1, 1))) == (1, 1)


def _per_tensor_activation(input_shapes: Sequence[tuple[int, ...]]) -> bool:
    """x/y scale and zero point must be scalars (per-tensor activations)."""
    def scalar(index: int) -> bool:
        if index >= len(input_shapes):
            return True
        shape = input_shapes[index]
        return len(shape) == 0 or (len(shape) == 1 and shape[0] == 1)
    return all(scalar(i) for i in (1, 2, 6, 7))


def _qgemm_applicable(
    node: Node, input_shapes: Sequence[tuple[int, ...]]
) -> bool:
    if len(input_shapes) < 8 or len(input_shapes[3]) != 4:
        return False
    return (node.attrs.get_int("group", 1) == 1
            and _unit_dilations(node)
            and _per_tensor_activation(input_shapes))


def _qdw_applicable(
    node: Node, input_shapes: Sequence[tuple[int, ...]]
) -> bool:
    if len(input_shapes) < 8 or len(input_shapes[3]) != 4:
        return False
    w_shape = input_shapes[3]
    group = node.attrs.get_int("group", 1)
    return (group > 1 and group == w_shape[0] and w_shape[1] == 1
            and _unit_dilations(node)
            and _per_tensor_activation(input_shapes))


def _padded_u8(
    ctx: ExecutionContext, node: Node, x: np.ndarray, params, fill: int,
) -> np.ndarray:
    """``x`` inside an arena padded with the zero point.

    The border is written once when the arena is created (raw uint8
    padding value == x_zp, i.e. real value zero); steady-state runs only
    refresh the interior.
    """
    top, left, bottom, right = params.pads
    if not any(params.pads):
        return x
    shape = (x.shape[0], x.shape[1],
             x.shape[2] + top + bottom, x.shape[3] + left + right)
    key = ("qpad", node.name, shape, fill)
    padded = ctx.cached(key, lambda: np.full(shape, fill, dtype=np.uint8))
    padded[:, :, top:top + x.shape[2], left:left + x.shape[3]] = x
    return padded


@kernel("QLinearConv", "qgemm", priority=200, applicable=_qgemm_applicable)
def qlinear_conv_gemm(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """im2col + float32 GEMM on raw uint8 columns, fused requantization.

    The traffic discipline beyond the float kernel: the pad and gather
    run **in uint8** (a quarter of the float32 im2col's bytes — measured
    ~2x faster than gathering float32), a 1x1 stride-1 conv skips the
    gather entirely (the input already *is* the column matrix), the
    single contiguous uint8->float32 cast feeds BLAS one *whole* GEMM
    per image (deliberately unblocked — BLAS amortises packing best over
    the full product), and the epilogue is the four-pass fused
    requantization running entirely in persistent arenas. Steady-state
    runs allocate nothing but the uint8 output.
    """
    x, w = inputs[0], inputs[3]
    params = conv_params(node, x.shape, w.shape)
    pack = pack_qconv(ctx, node, inputs, params)
    batch, out_channels = params.batch, params.out_channels
    tiles = params.out_h * params.out_w
    kh, kw = params.kernel
    k = x.shape[1] * kh * kw
    if params.is_pointwise and params.strides == (1, 1) and not any(params.pads):
        # 1x1 stride-1 unpadded conv: no gather, read the input directly.
        columns = x.reshape(batch, k, tiles)
    else:
        columns = scratch(ctx, "colsq", node.name, (batch, k, tiles), np.uint8)
        padded = _padded_u8(ctx, node, x, params, pack.x_zp)
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (kh, kw), axis=(2, 3))
        sh, sw = params.strides
        windows = windows[:, :, ::sh, ::sw][:, :, :params.out_h, :params.out_w]
        np.copyto(
            columns.reshape(
                batch, x.shape[1], kh, kw, params.out_h, params.out_w),
            windows.transpose(0, 1, 4, 5, 2, 3))
    # One-augmented float32 columns: the constant last row is written once
    # when the arena is born and multiplies w_aug's appended c column.
    # One GEMM per image, never several images in one wide GEMM: BLAS may
    # round a column differently at another operand width, and then a row
    # would depend on its batch and its companions.
    def fresh_columns() -> np.ndarray:
        buffer = np.empty((k + 1, tiles), dtype=np.float32)
        buffer[k] = 1.0
        return buffer

    colsf = ctx.cached(
        ("qscratch", "colsf", node.name, (k + 1, tiles), "<f4"), fresh_columns)
    g = scratch(ctx, "acc", node.name, (out_channels, tiles), np.float32)
    out = np.empty(
        (batch, out_channels, params.out_h, params.out_w), dtype=np.uint8)
    flat = out.reshape(batch, out_channels, tiles)
    for image in range(batch):
        np.copyto(colsf[:k], columns[image])    # u8 -> f32 widening copy
        ctx.matmul(pack.w_aug, colsf, out=g)
        np.clip(g, pack.lo, pack.hi, out=g)
        np.copyto(flat[image], g, casting="unsafe")
    return [out]


@kernel("QLinearConv", "qdirect_dw", priority=210, applicable=_qdw_applicable)
def qlinear_conv_depthwise(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """Depthwise QLinearConv: int16 tap products, exact int32 accumulation."""
    x, w = inputs[0], inputs[3]
    params = conv_params(node, x.shape, w.shape)
    pack = pack_qconv(ctx, node, inputs, params)
    padded = _padded_u8(ctx, node, x, params, pack.x_zp)
    batch, channels = params.batch, params.out_channels
    out_h, out_w = params.out_h, params.out_w
    sh, sw = params.strides
    kh, kw = params.kernel
    acc = scratch(ctx, "dwacc", node.name,
                  (batch, channels, out_h, out_w), np.int32)
    tap_product = scratch(ctx, "dwtap", node.name,
                          (batch, channels, out_h, out_w), np.int16)
    taps = pack.w_taps  # (channels, kh, kw) int16, zero-point shift folded
    first = True
    for ky in range(kh):
        for kx in range(kw):
            patch = padded[:, :, ky:ky + sh * out_h:sh, kx:kx + sw * out_w:sw]
            column = taps[:, ky, kx].reshape(1, channels, 1, 1)
            # uint8 * int16 -> int16: each product is <= 255*127, exact.
            np.multiply(patch, column, out=tap_product)
            if first:
                np.copyto(acc, tap_product)
                first = False
            else:
                np.add(acc, tap_product, out=acc)
    tiles = out_h * out_w
    out = np.empty((batch, channels, out_h, out_w), dtype=np.uint8)
    flat = out.reshape(batch, channels, tiles)
    if batch == 1:
        # Large single image: tile-block so the epilogue's passes stay in
        # cache instead of taking a DRAM round trip each.
        width = block_tiles(0, channels, tiles)
        g = scratch(ctx, "dwepi", node.name, (channels, width), np.float32)
        accf = acc[0].reshape(channels, tiles)
        for t0 in range(0, tiles, width):
            t1 = min(tiles, t0 + width)
            b = t1 - t0
            np.copyto(g[:, :b], accf[:, t0:t1])  # i32 -> f32, exact
            requantize(g[:, :b], pack, flat[0][:, t0:t1])
        return [out]
    # Batched: fuse image groups so each requantize pass is wide and the
    # per-call overhead divides by the group size.
    group = batch_group(0, tiles, batch)
    accf = acc.reshape(batch, channels, tiles)
    for n0 in range(0, batch, group):
        n1 = min(batch, n0 + group)
        span = n1 - n0
        g = scratch(ctx, "dwepi", node.name,
                    (channels, span * tiles), np.float32)
        np.copyto(g.reshape(channels, span, tiles),
                  accf[n0:n1].transpose(1, 0, 2))  # i32 -> f32, exact
        np.multiply(g, pack.m, out=g)
        np.add(g, pack.c, out=g)
        np.clip(g, pack.lo, pack.hi, out=g)
        np.copyto(flat[n0:n1],
                  g.reshape(channels, span, tiles).transpose(1, 0, 2),
                  casting="unsafe")
    return [out]


def _per_tensor_qdq(
    node: Node, input_shapes: Sequence[tuple[int, ...]]
) -> bool:
    def scalar(index: int) -> bool:
        if index >= len(input_shapes):
            return True
        shape = input_shapes[index]
        return len(shape) == 0 or (len(shape) == 1 and shape[0] == 1)
    return scalar(1) and scalar(2)


@kernel("QuantizeLinear", "fast", priority=200, applicable=_per_tensor_qdq)
def quantize_linear_fast(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """Affine quantize with the round folded into a truncating cast."""
    x = inputs[0]
    scale = inputs[1]
    zero_point = inputs[2] if len(inputs) > 2 else np.zeros(1, dtype=np.uint8)
    if zero_point.dtype != np.uint8:
        raise NotImplementedError("fast QuantizeLinear emits uint8 only")

    def constants():
        inv = np.float32(1.0 / float(np.asarray(scale).reshape(-1)[0]))
        offset = np.float32(int(np.asarray(zero_point).reshape(-1)[0]) + 0.5)
        return inv, offset

    inv_scale, offset = ctx.cached(("qfast", node.name), constants)
    flat = np.ascontiguousarray(x).reshape(-1)
    out = np.empty(x.shape, dtype=np.uint8)
    out_flat = out.reshape(-1)
    width = min(flat.size, 65536)
    g = scratch(ctx, "qlin", node.name, (max(width, 1),), np.float32)
    for t0 in range(0, flat.size, width):
        t1 = min(flat.size, t0 + width)
        block = g[:t1 - t0]
        np.multiply(flat[t0:t1], inv_scale, out=block)
        np.add(block, offset, out=block)
        np.clip(block, np.float32(0.0), np.float32(255.0), out=block)
        np.copyto(out_flat[t0:t1], block, casting="unsafe")
    return [out]


@kernel("DequantizeLinear", "fast", priority=200, applicable=_per_tensor_qdq)
def dequantize_linear_fast(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """Affine dequantize in two passes: scale-cast multiply, then shift."""
    q = inputs[0]
    scale = inputs[1]
    zero_point = inputs[2] if len(inputs) > 2 else np.zeros(1, dtype=q.dtype)

    def constants():
        scale_v = np.float32(np.asarray(scale).reshape(-1)[0])
        shift = np.float32(
            float(scale_v) * int(np.asarray(zero_point).reshape(-1)[0]))
        return scale_v, shift

    scale_v, shift = ctx.cached(("dqfast", node.name), constants)
    out = np.empty(q.shape, dtype=np.float32)
    np.multiply(q, scale_v, out=out)
    np.subtract(out, shift, out=out)
    return [out]
