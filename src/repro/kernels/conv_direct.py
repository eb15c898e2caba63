"""Direct convolution by kernel-offset accumulation.

Instead of materialising the im2col matrix, the convolution is computed as
``KH*KW`` small matrix multiplies, one per kernel offset:

    out += W[:, :, ky, kx] @ x[:, :, ky::stride, kx::stride]

No input data is copied or reshaped beyond strided views, so for *small*
tensors — few channels, small feature maps — this wins over GEMM
convolution, whose im2col step inflates the input ``KH*KW``-fold before the
multiply. For large tensors the single big GEMM wins back. This is exactly
the trade the paper observes between TVM's "spatial pack" primitive and
Orpheus' GEMM convolution, and this kernel is the engine of the TVM
framework simulation.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ir.node import Node
from repro.kernels.common import conv_geometry, conv_operands, finalize_conv, pad_input
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import kernel


def _not_depthwise(node: Node, shapes: Sequence[tuple[int, ...]]) -> bool:
    group = node.attrs.get_int("group", 1)
    return group == 1


@kernel("Conv", "direct", priority=80, applicable=_not_depthwise)
def conv_direct(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """Kernel-offset direct convolution (group == 1)."""
    x, weight, bias, residual = conv_operands(inputs)
    params, activation = conv_geometry(node, x.shape, weight.shape, ctx)
    padded = pad_input(x, params.pads)
    kh, kw = params.kernel
    sh, sw = params.strides
    dh, dw = params.dilations
    out_h, out_w = params.out_h, params.out_w
    acc = np.zeros(
        (params.batch, params.out_channels, out_h * out_w), dtype=x.dtype)
    for ky in range(kh):
        for kx in range(kw):
            y0, x0 = ky * dh, kx * dw
            patch = padded[:, :, y0:y0 + sh * out_h:sh, x0:x0 + sw * out_w:sw]
            patch = patch.reshape(params.batch, params.in_channels, -1)
            w_off = weight[:, :, ky, kx]  # (O, C)
            acc += np.matmul(w_off, patch)
    result = acc.reshape(params.batch, params.out_channels, out_h, out_w)
    return [finalize_conv(result, bias, residual, activation)]
