"""Constant folding: evaluate nodes whose inputs are all compile-time known.

Also includes `MaterializeConstants`, which turns ``Constant`` nodes into
plain initializers — the canonical form every other pass assumes.
"""

from __future__ import annotations

import numpy as np

from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import REGISTRY
from repro.passes.pass_manager import GraphPass

# Ops that are pure data movement / cheap math — always worth folding.
# Conv/Gemm over constants are folded too (rare, but they do appear in
# exported graphs as weight preprocessing).
_UNFOLDABLE = frozenset({"Constant"})  # handled by MaterializeConstants


class MaterializeConstants(GraphPass):
    """Convert ``Constant`` nodes into graph initializers."""

    name = "materialize-constants"

    def apply(self, graph: Graph) -> int:
        removed: list[Node] = []
        for node in graph.nodes_by_type("Constant"):
            value = node.attrs.get_tensor("value")
            name = node.outputs[0]
            if name in graph.initializers:
                continue
            graph.remove_nodes([node])
            graph.add_initializer(name, np.asarray(value))
            removed.append(node)
        return len(removed)


class ConstantFolding(GraphPass):
    """Evaluate nodes with all-constant inputs at compile time."""

    name = "constant-folding"

    def __init__(self, size_limit: int = 1 << 24) -> None:
        # Do not bake tensors larger than ~16M elements; folding such a node
        # trades model-file size for nothing.
        self.size_limit = size_limit

    def apply(self, graph: Graph) -> int:
        folded = 0
        ctx = ExecutionContext()
        output_names = set(graph.output_names)
        changed = True
        while changed:
            changed = False
            for node in list(graph.nodes):
                if node.op_type in _UNFOLDABLE:
                    continue
                if any(out in output_names for out in node.outputs):
                    continue
                if not node.present_inputs:
                    continue
                if not all(name in graph.initializers for name in node.present_inputs):
                    continue
                try:
                    shapes = [
                        tuple(graph.initializers[name].shape) if name else ()
                        for name in node.inputs
                    ]
                    impl = REGISTRY.select(node, shapes)
                    inputs = [
                        graph.initializers[name] if name else np.empty(0)
                        for name in node.inputs
                    ]
                    outputs = impl.fn(inputs, node, ctx)
                except Exception:
                    continue  # not foldable (e.g. no kernel); leave the node
                if sum(int(np.asarray(out).size) for out in outputs) > self.size_limit:
                    continue
                graph.remove_nodes([node])
                for name, value in zip(node.outputs, outputs):
                    graph.add_initializer(name, np.asarray(value))
                folded += 1
                changed = True
        return folded
