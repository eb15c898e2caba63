"""Shared helpers for the convolution/pooling kernel family.

Everything here is layout-fixed: activations NCHW, weights OIHW, exactly as
in the paper's C++ implementation.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.ir.node import Node
from repro.ir.shape_inference import resolve_conv_pads
from repro.kernels.context import ExecutionContext


@dataclasses.dataclass(frozen=True)
class ConvParams:
    """Fully resolved convolution geometry for one node."""

    batch: int
    in_channels: int
    in_h: int
    in_w: int
    out_channels: int
    kernel: tuple[int, int]
    strides: tuple[int, int]
    pads: tuple[int, int, int, int]  # top, left, bottom, right
    dilations: tuple[int, int]
    group: int
    out_h: int
    out_w: int

    @property
    def is_depthwise(self) -> bool:
        return self.group == self.in_channels and self.group == self.out_channels

    @property
    def is_pointwise(self) -> bool:
        return self.kernel == (1, 1) and self.group == 1

    @property
    def macs(self) -> int:
        """Multiply-accumulate count for this convolution."""
        per_output = (self.in_channels // self.group) * self.kernel[0] * self.kernel[1]
        outputs = self.batch * self.out_channels * self.out_h * self.out_w
        return per_output * outputs


def conv_params(node: Node, x_shape: tuple[int, ...], w_shape: tuple[int, ...]) -> ConvParams:
    """Resolve a Conv node's attributes against concrete input shapes."""
    batch, in_channels, in_h, in_w = x_shape
    out_channels, _, kh, kw = w_shape
    kernel = node.attrs.get_ints("kernel_shape", (kh, kw))
    strides = node.attrs.get_ints("strides", (1, 1))
    dilations = node.attrs.get_ints("dilations", (1, 1))
    group = node.attrs.get_int("group", 1)
    onnx_pads = resolve_conv_pads(node, (in_h, in_w), kernel, strides, dilations)
    pads = (onnx_pads[0], onnx_pads[1], onnx_pads[2], onnx_pads[3])
    eff_h = dilations[0] * (kernel[0] - 1) + 1
    eff_w = dilations[1] * (kernel[1] - 1) + 1
    out_h = (in_h + pads[0] + pads[2] - eff_h) // strides[0] + 1
    out_w = (in_w + pads[1] + pads[3] - eff_w) // strides[1] + 1
    return ConvParams(
        batch=batch, in_channels=in_channels, in_h=in_h, in_w=in_w,
        out_channels=out_channels, kernel=(kernel[0], kernel[1]),
        strides=(strides[0], strides[1]), pads=pads,
        dilations=(dilations[0], dilations[1]), group=group,
        out_h=out_h, out_w=out_w,
    )


def pad_input(x: np.ndarray, pads: tuple[int, int, int, int],
              value: float = 0.0) -> np.ndarray:
    """Zero-pad an NCHW activation spatially. No copy when pads are all 0."""
    top, left, bottom, right = pads
    if not any(pads):
        return x
    return np.pad(
        x, ((0, 0), (0, 0), (top, bottom), (left, right)),
        mode="constant", constant_values=value,
    )


def im2col(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Lower convolution input to a matrix (the GEMM convolution setup).

    Args:
        x: NCHW input, already padded.

    Returns:
        A fresh array of shape ``(batch, C*KH*KW, OH*OW)``: one column per
        output pixel, one row per (channel, kernel-offset) pair. Built with
        ``sliding_window_view`` so the only copy is the final reshape. The
        per-channel depthwise kernel and the exact int8 reference use it;
        the Orpheus ``im2col`` conv kernel lowers into its context's
        workspace instead (:mod:`repro.kernels.conv_im2col`).
    """
    kh, kw = params.kernel
    sh, sw = params.strides
    dh, dw = params.dilations
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (dh * (kh - 1) + 1, dw * (kw - 1) + 1), axis=(2, 3),
    )  # (N, C, OH', OW', EKH, EKW) where OH'/OW' are stride-1 output dims
    windows = windows[:, :, ::sh, ::sw, ::dh, ::dw]  # apply stride + dilation
    batch, channels, out_h, out_w, _, _ = windows.shape
    # (N, C, KH, KW, OH, OW) -> (N, C*KH*KW, OH*OW)
    columns = windows.transpose(0, 1, 4, 5, 2, 3).reshape(
        batch, channels * kh * kw, out_h * out_w)
    return np.ascontiguousarray(columns)


def im2col_loops(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Loop-built im2col (the DarkNet-style implementation).

    Semantically identical to :func:`im2col` but materialises the matrix
    with an explicit Python loop over kernel offsets, paying one strided
    copy per (ky, kx) — the memory-traffic profile of a C ``im2col`` that
    was not cache-blocked.
    """
    kh, kw = params.kernel
    sh, sw = params.strides
    dh, dw = params.dilations
    batch, channels = x.shape[0], x.shape[1]
    out_h, out_w = params.out_h, params.out_w
    columns = np.empty(
        (batch, channels, kh, kw, out_h, out_w), dtype=x.dtype)
    for ky in range(kh):
        for kx in range(kw):
            y0 = ky * dh
            x0 = kx * dw
            patch = x[:, :, y0:y0 + sh * out_h:sh, x0:x0 + sw * out_w:sw]
            columns[:, :, ky, kx] = patch
    return columns.reshape(batch, channels * kh * kw, out_h * out_w)


def _present(inputs: Sequence[np.ndarray], index: int) -> np.ndarray | None:
    """``inputs[index]``, or None when the slot is missing or empty.

    The executor (and ``autotune``) feed ``np.empty(0)`` for an input named
    ``""``, so an empty array is an absent optional input, never a value.
    """
    if len(inputs) > index and inputs[index] is not None and inputs[index].size:
        return inputs[index]
    return None


def conv_operands(
    inputs: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """A Conv's operands: ``(x, weight, bias | None, residual | None)``.

    Slot 2 is ONNX's optional bias. Slot 3 is framework-internal: the
    residual the epilogue fusion pass moved in from a following ``Add``
    (``FuseEpilogues``), which leaves the bias slot ``""`` when the conv
    has none.
    """
    return inputs[0], inputs[1], _present(inputs, 2), _present(inputs, 3)


def conv_geometry(node: Node, x_shape: tuple[int, ...], w_shape: tuple[int, ...],
                  ctx: ExecutionContext) -> tuple[ConvParams, str]:
    """``(conv_params(...), fused activation)``, resolved once per context.

    Keyed by node name and input/weight shapes in ``ctx.geometry``; the
    entry also holds the node itself and is served only to that same
    object, so two nodes that share a name never see each other's.
    """
    key = (node.name, x_shape, w_shape)
    entry = ctx.geometry.get(key)
    if entry is None or entry[0] is not node:
        entry = ctx.geometry[key] = (
            node, conv_params(node, x_shape, w_shape),
            node.attrs.get_str("activation", ""))
    return entry[1], entry[2]


def apply_activation(out: np.ndarray, activation: str) -> np.ndarray:
    """Apply a fused ``activation`` attribute to ``out`` in place."""
    if not activation:
        return out
    if activation == "relu":
        np.maximum(out, 0, out=out)
        return out
    if activation == "relu6":
        np.clip(out, 0, 6, out=out)
        return out
    raise ValueError(f"unknown fused activation {activation!r}")


def finalize_conv(out: np.ndarray, bias: np.ndarray | None,
                  residual: np.ndarray | None, activation: str) -> np.ndarray:
    """Conv epilogue, in place: bias, then residual, then activation.

    The fuse-activations pass records a following Relu/Clip in the Conv
    node's ``activation`` attribute, and ``FuseEpilogues`` a following
    residual ``Add`` as a fourth input; applying them here, while the
    output tile is still hot, is the entire point of the fusion. The order
    is the unfused graph's (``relu(conv + bias + residual)``), so a fused
    conv's output is bitwise the unfused nodes' output.
    """
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    if residual is not None:
        out += residual
    return apply_activation(out, activation)
