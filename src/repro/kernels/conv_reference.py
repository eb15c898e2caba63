"""Reference convolution: seven explicit loops.

The slowest, most obviously-correct implementation — the oracle every other
convolution kernel is tested against (the paper's "suite of unit tests to
ensure correctness of all operations"). Registered as ``experimental`` so no
backend ever selects it implicitly; tests request it by name on small
shapes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ir.node import Node
from repro.kernels.common import conv_geometry, conv_operands, finalize_conv, pad_input
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import kernel


@kernel("Conv", "reference", priority=-100, experimental=True)
def conv_reference(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """Naive loop-nest convolution supporting every attribute combination."""
    x, weight, bias, residual = conv_operands(inputs)
    params, activation = conv_geometry(node, x.shape, weight.shape, ctx)
    padded = pad_input(x, params.pads)
    kh, kw = params.kernel
    sh, sw = params.strides
    dh, dw = params.dilations
    group = params.group
    ch_per_group = params.in_channels // group
    out_per_group = params.out_channels // group
    out = np.zeros(
        (params.batch, params.out_channels, params.out_h, params.out_w),
        dtype=np.float64,
    )
    for n in range(params.batch):
        for oc in range(params.out_channels):
            g = oc // out_per_group
            for oy in range(params.out_h):
                for ox in range(params.out_w):
                    acc = 0.0
                    for ic in range(ch_per_group):
                        channel = g * ch_per_group + ic
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * sh + ky * dh
                                ix = ox * sw + kx * dw
                                acc += float(padded[n, channel, iy, ix]) * float(
                                    weight[oc, ic, ky, kx])
                    out[n, oc, oy, ox] = acc
    result = out.astype(x.dtype, copy=False)
    return [finalize_conv(result, bias, residual, activation)]
