"""Cheap-convolution substitution (Moonshine-style blocks).

The paper's Section II notes TVM "performs poorly (e.g. [when] replacing
standard convolutional blocks with cheaper ones [6])" — reference [6] being
Crowley et al., *Moonshine: Distilling with Cheap Convolutions* (NeurIPS
2018), which swaps full k x k convolutions for grouped/separable
substitutes. This transform reproduces that workload: every eligible dense
convolution becomes a depthwise k x k followed by a pointwise 1 x 1.

Unlike the simplification passes this is **not** semantics-preserving — in
Moonshine the substituted network is re-trained by distillation. Here fresh
He-scaled weights are generated (only the network's costs are evaluated,
matching the paper's use), so the transform lives outside the default
pipeline and is applied explicitly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.shape_inference import infer_shapes


@dataclasses.dataclass(frozen=True)
class CheapenReport:
    """What the substitution did."""

    replaced: int
    skipped: int
    macs_before: int
    macs_after: int

    @property
    def macs_ratio(self) -> float:
        if self.macs_before == 0:
            return 1.0
        return self.macs_after / self.macs_before

    def __str__(self) -> str:
        return (f"replaced {self.replaced} convs ({self.skipped} skipped); "
                f"MACs x{self.macs_ratio:.2f}")


def _conv_macs(graph: Graph) -> int:
    from repro.analysis.macs import count_graph
    return count_graph(graph).total_macs


def cheapen_convolutions(
    graph: Graph,
    min_channels: int = 8,
    seed: int = 0,
) -> tuple[Graph, CheapenReport]:
    """Replace dense k x k convs with depthwise + pointwise pairs.

    Eligible: ``group == 1``, square kernel >= 3, at least ``min_channels``
    input and output channels. The depthwise stage inherits the stride /
    pads / dilation; the pointwise stage changes channel count.

    Returns the transformed copy and a report (including the MAC reduction,
    typically 6-8x on 3x3-heavy networks).
    """
    out = graph.copy()
    rng = np.random.default_rng(seed)
    value_types = infer_shapes(out)
    macs_before = _conv_macs(out)
    replaced = 0
    skipped = 0
    new_nodes: list[Node] = []
    counter = 0
    for node in out.toposort():
        if node.op_type != "Conv":
            new_nodes.append(node)
            continue
        weight = out.initializers.get(node.inputs[1])
        kernel = tuple(node.attrs.get_ints(
            "kernel_shape", tuple(weight.shape[2:]) if weight is not None else ()))
        in_channels = value_types[node.inputs[0]][0][1]
        out_channels = weight.shape[0] if weight is not None else 0
        eligible = (
            weight is not None
            and node.attrs.get_int("group", 1) == 1
            and len(kernel) == 2 and kernel[0] == kernel[1] and kernel[0] >= 3
            and in_channels >= min_channels
            and out_channels >= min_channels
        )
        if not eligible:
            skipped += 1
            new_nodes.append(node)
            continue
        counter += 1
        prefix = f"{node.name}_cheap{counter}"
        # Depthwise stage: same spatial geometry, per-channel filters.
        dw_weight = (rng.standard_normal(
            (in_channels, 1, kernel[0], kernel[1]))
            * np.sqrt(2.0 / (kernel[0] * kernel[1]))).astype(np.float32)
        dw_name = f"{prefix}_dw_w"
        out.add_initializer(dw_name, dw_weight)
        dw_out = f"{prefix}_dw_out"
        new_nodes.append(Node(
            "Conv", [node.inputs[0], dw_name], [dw_out],
            attrs={
                "kernel_shape": kernel,
                "strides": node.attrs.get_ints("strides", (1, 1)),
                "pads": node.attrs.get_ints("pads", (0, 0, 0, 0)),
                "dilations": node.attrs.get_ints("dilations", (1, 1)),
                "group": in_channels,
            },
            name=f"{prefix}_dw"))
        # Pointwise stage: channel mixing, keeps the original bias.
        pw_weight = (rng.standard_normal((out_channels, in_channels, 1, 1))
                     * np.sqrt(2.0 / in_channels)).astype(np.float32)
        pw_name = f"{prefix}_pw_w"
        out.add_initializer(pw_name, pw_weight)
        pw_inputs = [dw_out, pw_name]
        if len(node.inputs) > 2 and node.inputs[2]:
            pw_inputs.append(node.inputs[2])
        pw_attrs: dict[str, object] = {
            "kernel_shape": (1, 1), "strides": (1, 1),
            "pads": (0, 0, 0, 0), "dilations": (1, 1), "group": 1,
        }
        if "activation" in node.attrs:
            pw_attrs["activation"] = node.attrs.get_str("activation")
        new_nodes.append(Node(
            "Conv", pw_inputs, list(node.outputs), attrs=pw_attrs,
            name=f"{prefix}_pw"))
        replaced += 1
    out.nodes = new_nodes
    out.prune_initializers()
    out.validate()
    return out, CheapenReport(
        replaced=replaced, skipped=skipped,
        macs_before=macs_before, macs_after=_conv_macs(out))
