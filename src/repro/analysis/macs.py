"""Static MAC / FLOP counting over a graph.

Multiply-accumulate counts are the standard hardware-independent cost model
for DNN inference; the energy proxy (:mod:`repro.analysis.energy`) and the
benchmark reports build on these numbers.
"""

from __future__ import annotations

import dataclasses

from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.shape_inference import infer_shapes


def _volume(shape: tuple[int, ...]) -> int:
    count = 1
    for dim in shape:
        count *= max(dim, 1)
    return count


def _conv_macs(node: Node, in_shapes, out_shape) -> int:
    w_shape = in_shapes[1]
    group = node.attrs.get_int("group", 1)
    per_output = (w_shape[1]) * w_shape[2] * w_shape[3]  # C/group * KH * KW
    del group  # already folded into w_shape[1]
    return per_output * _volume(out_shape)


def _gemm_macs(node: Node, in_shapes, out_shape) -> int:
    a_shape = in_shapes[0]
    inner = a_shape[0] if node.attrs.get_int("transA", 0) else a_shape[-1]
    return _volume(out_shape) * max(inner, 1)


def _matmul_macs(node: Node, in_shapes, out_shape) -> int:
    return _volume(out_shape) * max(in_shapes[0][-1], 1)


def node_macs(node: Node, in_shapes, out_shape) -> int:
    """MAC count for one node (0 for data movement / activations)."""
    if node.op_type == "Conv":
        return _conv_macs(node, in_shapes, out_shape)
    if node.op_type == "Gemm":
        return _gemm_macs(node, in_shapes, out_shape)
    if node.op_type == "MatMul":
        return _matmul_macs(node, in_shapes, out_shape)
    return 0


# Elementwise FLOPs per output element for non-MAC ops (coarse but useful).
_ELEMENTWISE_FLOPS = {
    "Add": 1, "Sub": 1, "Mul": 1, "Div": 1, "Relu": 1, "LeakyRelu": 2,
    "Clip": 2, "BatchNormalization": 2, "Sigmoid": 4, "Tanh": 4,
    "Softmax": 5, "AveragePool": 1, "MaxPool": 1, "GlobalAveragePool": 1,
    "Pow": 4,
}


@dataclasses.dataclass(frozen=True)
class OpCost:
    """Cost of one node: MACs, auxiliary FLOPs, and activation bytes moved."""

    node_name: str
    op_type: str
    macs: int
    flops: int          # non-MAC elementwise work (1 FLOP units)
    input_bytes: int
    output_bytes: int

    @property
    def total_flops(self) -> int:
        """All floating-point work, counting one MAC as two FLOPs."""
        return 2 * self.macs + self.flops


@dataclasses.dataclass(frozen=True)
class GraphCost:
    """Aggregate static cost of a graph."""

    per_node: tuple[OpCost, ...]
    parameters: int
    weight_bytes: int

    @property
    def total_macs(self) -> int:
        return sum(cost.macs for cost in self.per_node)

    @property
    def total_flops(self) -> int:
        return sum(cost.total_flops for cost in self.per_node)

    @property
    def activation_bytes(self) -> int:
        return sum(cost.output_bytes for cost in self.per_node)

    def by_op_type(self) -> dict[str, int]:
        """MACs aggregated per op type, heaviest first."""
        totals: dict[str, int] = {}
        for cost in self.per_node:
            totals[cost.op_type] = totals.get(cost.op_type, 0) + cost.macs
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    def summary(self) -> str:
        return (f"{self.total_macs / 1e6:.1f} MMACs, "
                f"{self.total_flops / 1e6:.1f} MFLOPs, "
                f"{self.parameters / 1e6:.2f} M parameters, "
                f"{self.weight_bytes / (1 << 20):.1f} MiB weights")


def count_graph(graph: Graph) -> GraphCost:
    """Compute per-node and aggregate static costs for ``graph``."""
    value_types = infer_shapes(graph)
    costs = []
    for node in graph.toposort():
        in_shapes = [
            value_types[name][0] if name else ()
            for name in node.inputs
        ]
        out_shape, out_dtype = value_types[node.outputs[0]]
        macs = node_macs(node, in_shapes, out_shape)
        flops = _ELEMENTWISE_FLOPS.get(node.op_type, 0) * _volume(out_shape)
        input_bytes = sum(
            _volume(value_types[name][0]) * value_types[name][1].itemsize
            for name in node.present_inputs
        )
        output_bytes = sum(
            _volume(value_types[out][0]) * value_types[out][1].itemsize
            for out in node.outputs
        )
        costs.append(OpCost(
            node_name=node.name, op_type=node.op_type, macs=macs,
            flops=flops, input_bytes=input_bytes, output_bytes=output_bytes))
    weight_bytes = sum(int(a.nbytes) for a in graph.initializers.values())
    return GraphCost(
        per_node=tuple(costs),
        parameters=graph.num_parameters(),
        weight_bytes=weight_bytes,
    )
