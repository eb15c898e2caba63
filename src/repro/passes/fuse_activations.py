"""Fuse a following Relu / Relu6 (Clip 0..6) into a Conv node.

The conv kernels apply the recorded activation in their epilogue (see
``finalize_conv``), saving one full traversal + allocation of the output
tensor per fused pair.
"""

from __future__ import annotations

from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.passes.pass_manager import GraphPass


def _clip_bounds(graph: Graph, node: Node) -> tuple[float, float] | None:
    """Constant (min, max) of a Clip node, or None if not static."""
    low: float | None = None
    high: float | None = None
    if len(node.inputs) > 1 and node.inputs[1]:
        array = graph.initializers.get(node.inputs[1])
        if array is None or array.size != 1:
            return None
        low = float(array.reshape(-1)[0])
    elif "min" in node.attrs:
        low = node.attrs.get_float("min")
    if len(node.inputs) > 2 and node.inputs[2]:
        array = graph.initializers.get(node.inputs[2])
        if array is None or array.size != 1:
            return None
        high = float(array.reshape(-1)[0])
    elif "max" in node.attrs:
        high = node.attrs.get_float("max")
    if low is None or high is None:
        return None
    return (low, high)


class FuseConvActivation(GraphPass):
    """Record an immediately-following activation in the Conv's attributes."""

    name = "fuse-activations"

    def apply(self, graph: Graph) -> int:
        fused = 0
        output_names = set(graph.output_names)
        # Built once, like FoldBatchNorm's: a fusion only renames the
        # conv's own output, and a stale entry can only name the removed
        # activation node, which is never a Conv.
        producers = graph.producers()
        consumers = graph.consumers()
        for node in list(graph.nodes):
            activation = self._classify(graph, node)
            if activation is None:
                continue
            upstream = producers.get(node.inputs[0])
            if upstream is None or upstream.op_type != "Conv":
                continue
            if "activation" in upstream.attrs:
                continue  # already carries a fused activation
            conv_out = upstream.outputs[0]
            if conv_out in output_names:
                continue
            if len(consumers.get(conv_out, ())) != 1:
                continue  # pre-activation value used elsewhere
            graph.remove_nodes([node])  # before rewiring, to keep SSA intact
            upstream.attrs.set("activation", activation)
            upstream.outputs[0] = node.outputs[0]
            fused += 1
        return fused

    @staticmethod
    def _classify(graph: Graph, node: Node) -> str | None:
        if node.op_type == "Relu":
            return "relu"
        if node.op_type == "Clip":
            bounds = _clip_bounds(graph, node)
            if bounds == (0.0, 6.0):
                return "relu6"
        return None
