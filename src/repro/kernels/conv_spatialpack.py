"""Spatial-pack convolution (TVM-style tiled lowering).

TVM's Arm CPU convolution schedule ("spatial pack") tiles the output
spatially, packs the corresponding input region into a compact buffer, and
runs one small GEMM per tile, keeping the working set inside L1/L2 cache.
This kernel reproduces that structure: output tiles of ``tile_h x tile_w``
pixels, per-tile im2col into a buffer whose lifetime is one tile, per-tile
GEMM.

On the numpy substrate the cache effect is played by allocation size: a
tile's lowered buffer is tiny, so small convolutions avoid the full im2col
blow-up, while large convolutions pay ``num_tiles`` dispatch overheads that
one big GEMM does not.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ir.node import Node
from repro.kernels.common import conv_geometry, conv_operands, finalize_conv, pad_input
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import kernel

_TILE = 16  # output pixels per tile edge (TVM commonly uses 8-16)


def _not_grouped(node: Node, shapes: Sequence[tuple[int, ...]]) -> bool:
    return node.attrs.get_int("group", 1) == 1


@kernel("Conv", "spatial_pack", priority=60, applicable=_not_grouped)
def conv_spatial_pack(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """Tiled spatial-pack convolution (group == 1)."""
    x, weight, bias, residual = conv_operands(inputs)
    params, activation = conv_geometry(node, x.shape, weight.shape, ctx)
    padded = pad_input(x, params.pads)
    kh, kw = params.kernel
    sh, sw = params.strides
    dh, dw = params.dilations
    out_h, out_w = params.out_h, params.out_w
    w_matrix = weight.reshape(params.out_channels, -1)  # (O, C*KH*KW)
    out = np.empty(
        (params.batch, params.out_channels, out_h, out_w), dtype=x.dtype)
    for tile_y in range(0, out_h, _TILE):
        th = min(_TILE, out_h - tile_y)
        for tile_x in range(0, out_w, _TILE):
            tw = min(_TILE, out_w - tile_x)
            # Pack: gather the input region feeding this output tile.
            y0 = tile_y * sh
            x0 = tile_x * sw
            region_h = (th - 1) * sh + dh * (kh - 1) + 1
            region_w = (tw - 1) * sw + dw * (kw - 1) + 1
            region = padded[:, :, y0:y0 + region_h, x0:x0 + region_w]
            packed = np.empty(
                (params.batch, params.in_channels, kh, kw, th, tw),
                dtype=x.dtype,
            )
            for ky in range(kh):
                for kx in range(kw):
                    ys, xs = ky * dh, kx * dw
                    packed[:, :, ky, kx] = region[
                        :, :, ys:ys + sh * th:sh, xs:xs + sw * tw:sw]
            columns = packed.reshape(params.batch, -1, th * tw)
            # Compute: one small GEMM per image for this tile.
            tile_out = np.matmul(w_matrix, columns)  # (N, O, th*tw)
            out[:, :, tile_y:tile_y + th, tile_x:tile_x + tw] = (
                tile_out.reshape(params.batch, params.out_channels, th, tw))
    return [finalize_conv(out, bias, residual, activation)]
