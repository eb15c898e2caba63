"""Fold inference-mode BatchNormalization into a preceding Conv or Gemm.

``BN(Conv(x, W, b))`` is algebraically a convolution with rescaled weights:

    W'[o] = W[o] * scale[o] / sqrt(var[o] + eps)
    b'[o] = (b[o] - mean[o]) * scale[o] / sqrt(var[o] + eps) + bias[o]

One fewer node per conv block — for BN-heavy networks (all five models in
the paper's evaluation) this removes a third of all nodes and one full
activation-tensor traversal each.
"""

from __future__ import annotations

import numpy as np

from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.passes.pass_manager import GraphPass


class FoldBatchNorm(GraphPass):
    """Statically merge BN parameters into Conv/Gemm weights."""

    name = "fold-batchnorm"

    def apply(self, graph: Graph) -> int:
        folded = 0
        output_names = set(graph.output_names)
        # Built once: a fold only renames the upstream node's own output,
        # so entries for untouched values stay valid; a BN behind a
        # just-folded one sees the removed BN as its producer and waits
        # for the PassManager's next fixed-point iteration.
        producers = graph.producers()
        consumers = graph.consumers()
        for bn in graph.nodes_by_type("BatchNormalization"):
            if len(bn.outputs) > 1:
                continue  # training-mode outputs requested
            upstream = producers.get(bn.inputs[0])
            if upstream is None or upstream.op_type not in ("Conv", "Gemm"):
                continue
            if "activation" in upstream.attrs:
                # A fused activation sits between the conv and this BN:
                # BN(relu(conv(x))) cannot fold into the conv weights.
                continue
            if (len(consumers.get(upstream.outputs[0], ())) != 1
                    or upstream.outputs[0] in output_names):
                continue  # conv output used elsewhere; cannot rewrite weights
            if upstream.op_type == "Gemm" and (
                upstream.attrs.get_int("transB", 0) != 1
                or upstream.attrs.get_float("alpha", 1.0) != 1.0
                or upstream.attrs.get_float("beta", 1.0) != 1.0
            ):
                continue  # only the plain out_features-major layout is handled
            param_names = bn.inputs[1:5]
            if any(name not in graph.initializers for name in param_names):
                continue
            weight_name = upstream.inputs[1]
            if weight_name not in graph.initializers:
                continue
            if not self._fold(graph, upstream, bn):
                continue
            # The conv now produces the BN's output directly.
            graph.remove_nodes([bn])  # before rewiring, to keep SSA intact
            upstream.outputs[0] = bn.outputs[0]
            folded += 1
        return folded

    @staticmethod
    def _fold(graph: Graph, upstream: Node, bn: Node) -> bool:
        scale, bias, mean, var = (
            graph.initializers[name].astype(np.float64) for name in bn.inputs[1:5])
        epsilon = bn.attrs.get_float("epsilon", 1e-5)
        weight = graph.initializers[upstream.inputs[1]]
        out_channels = weight.shape[0]
        if scale.shape != (out_channels,):
            return False
        multiplier = scale / np.sqrt(var + epsilon)

        shaped = multiplier.reshape((-1,) + (1,) * (weight.ndim - 1))
        # Multiplied in float64 and rounded once into the weight's dtype,
        # with no float64 copy of the weight: numpy casts it block by block.
        new_weight = np.empty_like(weight)
        np.multiply(weight, shaped, out=new_weight, dtype=np.float64,
                    casting="same_kind")

        if len(upstream.inputs) > 2 and upstream.inputs[2]:
            old_bias = graph.initializers.get(upstream.inputs[2])
            if old_bias is None:
                return False
        else:
            old_bias = np.zeros(out_channels, dtype=weight.dtype)
        new_bias = ((old_bias.astype(np.float64) - mean) * multiplier + bias).astype(
            weight.dtype)

        # Write under fresh names: the originals may feed other nodes.
        weight_name = f"{upstream.name}_bnfold_w"
        bias_name = f"{upstream.name}_bnfold_b"
        suffix = 0
        while weight_name in graph.initializers or bias_name in graph.initializers:
            suffix += 1
            weight_name = f"{upstream.name}_bnfold_w{suffix}"
            bias_name = f"{upstream.name}_bnfold_b{suffix}"
        graph.add_initializer(weight_name, new_weight)
        graph.add_initializer(bias_name, new_bias)
        upstream.inputs = [upstream.inputs[0], weight_name, bias_name]
        return True
