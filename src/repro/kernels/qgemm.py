"""Quantized GEMM building blocks: scratch arenas, packed parameters, and
the fused requantization epilogue.

The int8 execution path keeps its inner product on the float32 BLAS GEMM —
on this substrate there is no integer matrix engine, and float32 represents
every individual int8*uint8 product exactly — so its speed has to come from
everything *around* the GEMM instead:

* **Scratch arenas** (:func:`scratch`): every per-run temporary (padded
  input, im2col columns, accumulator) lives in a buffer cached on the
  execution context, keyed by node and shape. Steady-state runs perform
  zero large allocations (the float ``im2col`` and ``direct_dw`` kernels
  get the same from one shared ``ExecutionContext.workspace``).
* **Packed parameters** (:func:`pack_qconv`): the weight matrix is
  pre-cast to a contiguous float32 GEMM operand once, and the whole
  affine requantization — per-channel multiplier, zero-point correction,
  bias, output zero point, *and* the rounding offset — is folded into one
  multiply plus one add.
* **Augmented GEMM** (:func:`pack_qconv` + the conv kernels): the packed
  weight rows are pre-scaled by the per-channel multiplier and the whole
  affine correction ``c`` rides as an extra GEMM column against a
  constant-1 input row — so the GEMM itself produces ``acc*m + c`` and
  the epilogue collapses to ``clip`` plus a truncating cast, versus
  dequantize + bias + activation + round + clip + cast for the naive
  formulation. The fused activation (relu / relu6) is expressed purely
  through the clip bounds. :func:`requantize` keeps the standalone
  ``clip(trunc(g*m + c), lo, hi)`` epilogue for callers that cannot
  augment their GEMM.
* **Batch fusion** (:func:`batch_group`): at batch inference, several
  images' accumulators are regrouped into one wide elementwise epilogue
  pass (within a cache-friendly byte budget), dividing the per-pass
  Python dispatch by the group size. Elementwise passes round each value
  alone, so grouping never changes a bit; GEMMs stay one per image.

Rounding note: folding ``+0.5`` into ``c`` and truncating rounds halves
up, where the exact reference (:mod:`repro.quant.qops`) rounds halves to
even. The two disagree only when an accumulator lands exactly on a
``.5`` quantization boundary; the accuracy-proxy battery
(``tests/quant/test_int8_backend.py``) bounds the effect together with
float32 accumulation error.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.context import ExecutionContext

__all__ = ["scratch", "pack_qconv", "requantize", "saturate",
           "block_tiles", "batch_group"]

#: Target footprint for one (columns block + accumulator block) pair. Half
#: a megabyte keeps both resident in a typical edge L2 while leaving room
#: for the BLAS packing buffers.
_BLOCK_BYTES = 512 * 1024


def block_tiles(k: int, out_channels: int, tiles: int) -> int:
    """Tile-block width for the fused cast->GEMM->requantize pipeline.

    Chosen so the float32 column block ``(k, B)`` and accumulator block
    ``(out_channels, B)`` together fit in ~:data:`_BLOCK_BYTES`: the
    epilogue then reads the accumulator straight out of cache instead of
    taking a DRAM round trip per pass. Clamped below by BLAS efficiency
    (very skinny GEMMs waste the packing) and above by ``tiles``.
    """
    width = _BLOCK_BYTES // (4 * max(1, k + out_channels))
    return max(64, min(tiles, width))


def batch_group(k: int, tiles: int, batch: int) -> int:
    """How many images to fuse into one pass over ``(k + 1, tiles)`` blocks.

    A batched workload turns ``batch`` narrow passes into wide
    ``group*tiles`` ones, so the per-call Python overhead divides by the
    group size. The group is capped so the float32 block stays around
    :data:`_BLOCK_BYTES` (one image minimum). Only elementwise work may
    be grouped (the depthwise epilogue calls this with ``k = 0``): a GEMM
    over several images can round a column differently than the same
    image's GEMM alone, so GEMMs stay one per image.
    """
    if batch <= 1:
        return 1
    per_image = 4 * max(1, k + 1) * tiles
    return max(1, min(batch, (2 * _BLOCK_BYTES) // max(1, per_image)))


def scratch(
    ctx: ExecutionContext, tag: str, node_name: str,
    shape: tuple[int, ...], dtype: np.dtype,
) -> np.ndarray:
    """A per-node reusable buffer of ``shape``/``dtype`` on ``ctx``.

    The shape is part of the key, so a node whose input shape changes
    between runs (dynamic batch) simply allocates a second arena rather
    than corrupting the first.
    """
    key = ("qscratch", tag, node_name, shape, np.dtype(dtype).str)
    return ctx.cached(key, lambda: np.empty(shape, dtype=dtype))


class QConvPack:
    """Frozen per-node operands for the fast quantized convolution.

    Attributes:
        w_aug: float32 ``(out_channels, C*KH*KW + 1)`` *augmented* GEMM
            operand: row ``o`` holds ``w[o] * m[o]`` with ``c[o]``
            appended as a final column. Multiplied against columns that
            carry a constant-one last row, the GEMM itself computes the
            whole affine requantization ``acc*m + c`` — the epilogue
            reduces to clip + narrowing cast.
        w_taps: int16 ``(channels, KH, KW)`` depthwise tap table.
        m: float32 ``(out_channels, 1)`` per-channel requant multiplier
            ``x_scale * w_scale / y_scale``.
        c: float32 ``(out_channels, 1)`` folded additive term
            ``(bias - x_zp * rowsum(w)) * m + y_zp + 0.5`` (the 0.5 turns
            the epilogue's truncation into round-half-up).
        lo / hi: clip bounds encoding both the uint8 range and any fused
            activation.
        x_zp: the input zero point (needed by the depthwise pre-shift).
    """

    __slots__ = ("w_aug", "w_taps", "m", "c", "lo", "hi", "x_zp")

    def __init__(self, w_aug, w_taps, m, c, lo, hi, x_zp) -> None:
        self.w_aug = w_aug
        self.w_taps = w_taps
        self.m = m
        self.c = c
        self.lo = lo
        self.hi = hi
        self.x_zp = x_zp


def _activation_bounds(node, y_scale: float, y_zp: int) -> tuple[float, float]:
    """Clip bounds implementing the fused activation in the uint8 domain."""
    lo, hi = 0.0, 255.0
    activation = node.attrs.get_str("activation", "")
    if activation in ("relu", "relu6"):
        lo = float(max(0, y_zp))
    if activation == "relu6":
        hi = float(min(255, int(round(6.0 / y_scale)) + y_zp))
    return lo, hi


def pack_qconv(ctx: ExecutionContext, node, inputs, params) -> QConvPack:
    """Compute (once per node) the folded operands for QLinearConv.

    Derivation: with unshifted uint8 columns ``X`` and int8 weights ``W``,

        acc32[o] = sum_k W[o,k] * (X[k] - x_zp)
                 = (W @ X)[o] - x_zp * rowsum(W)[o]
        y[o] = clip(round(acc32[o] * m[o] + bias[o] * m[o]) + y_zp)

    so the GEMM runs on the raw cast operands and everything else
    collapses into the per-channel ``(m, c)`` pair applied by
    :func:`requantize`.
    """

    def build() -> QConvPack:
        (_x, x_scale, x_zp, w, w_scale, w_zp, y_scale, y_zp) = inputs[:8]
        bias = inputs[8] if len(inputs) > 8 else None
        x_scale_v = float(np.asarray(x_scale).reshape(-1)[0])
        y_scale_v = float(np.asarray(y_scale).reshape(-1)[0])
        x_zp_v = int(np.asarray(x_zp).reshape(-1)[0])
        y_zp_v = int(np.asarray(y_zp).reshape(-1)[0])
        w_zp_v = int(np.asarray(w_zp).reshape(-1)[0])
        out_channels = w.shape[0]
        w64 = w.astype(np.float64) - float(w_zp_v)
        w_scales = np.asarray(w_scale, dtype=np.float64).reshape(-1)
        if w_scales.size == 1:
            w_scales = np.full(out_channels, w_scales[0])
        m64 = x_scale_v * w_scales / y_scale_v
        rowsum = w64.reshape(out_channels, -1).sum(axis=1)
        bias64 = (np.zeros(out_channels) if bias is None
                  else np.asarray(bias, dtype=np.float64).reshape(-1))
        c64 = (bias64 - x_zp_v * rowsum) * m64 + y_zp_v + 0.5
        lo, hi = _activation_bounds(node, y_scale_v, y_zp_v)
        w_aug = None
        w_taps = None
        if params.is_depthwise:
            w_taps = np.ascontiguousarray(
                w64.reshape(out_channels, *params.kernel).astype(np.int16))
        else:
            # Raw weights are *not* zero-point shifted (x_zp rides in c);
            # scaling rows by m and appending c as a final column turns
            # the GEMM against one-augmented columns into the full affine
            # requantization.
            scaled = w64.reshape(out_channels, -1) * m64[:, np.newaxis]
            w_aug = np.ascontiguousarray(
                np.concatenate([scaled, c64[:, np.newaxis]], axis=1)
                .astype(np.float32))
        return QConvPack(
            w_aug=w_aug,
            w_taps=w_taps,
            m=m64.astype(np.float32).reshape(out_channels, 1),
            c=c64.astype(np.float32).reshape(out_channels, 1),
            lo=np.float32(lo),
            hi=np.float32(hi),
            x_zp=x_zp_v,
        )

    return ctx.cached(("qconv_pack", node.name), build)


def saturate(g: np.ndarray, pack: QConvPack, out: np.ndarray) -> np.ndarray:
    """Epilogue for the augmented GEMM: ``out = clip(trunc(g), lo, hi)``.

    The augmented operand already applied the affine requantization inside
    the GEMM, so only the saturating clip and the narrowing cast remain —
    two passes over a buffer the GEMM just wrote.
    """
    np.clip(g, pack.lo, pack.hi, out=g)
    np.copyto(out, g, casting="unsafe")
    return out


def requantize(g: np.ndarray, pack: QConvPack, out: np.ndarray,
               transposed: bool = False) -> np.ndarray:
    """In-place fused epilogue: ``out = clip(trunc(g*m + c), lo, hi)``.

    ``g`` is the float32 accumulator (mutated), ``out`` the uint8
    destination of the same shape. ``c`` already carries bias, zero-point
    correction, output zero point, and the +0.5 rounding offset, so the
    whole requantization is multiply, add, one clip, one narrowing cast.
    With ``transposed=True`` the accumulator is laid out ``(tiles,
    out_channels)`` and the per-channel terms broadcast along rows.
    """
    m = pack.m.T if transposed else pack.m
    c = pack.c.T if transposed else pack.c
    np.multiply(g, m, out=g)
    np.add(g, c, out=g)
    np.clip(g, pack.lo, pack.hi, out=g)
    # Truncating cast of a clipped non-negative value == floor == half-up
    # round (the +0.5 rides inside c).
    np.copyto(out, g, casting="unsafe")
    return out
