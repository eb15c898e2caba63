"""Fuse what follows a Conv (or a BatchNormalization) into its epilogue.

``FuseConvActivation`` records a following Relu / Relu6 (Clip 0..6) in the
Conv's ``activation`` attribute; the conv kernels apply it in their
epilogue (see ``finalize_conv``), saving one full traversal + allocation of
the output tensor per fused pair. ``FuseEpilogues`` goes further, after
quantization: a residual ``Add`` [+ Relu|Relu6] becomes the Conv's fourth
input, and a Relu|Relu6 after a BatchNormalization the BN's ``activation``.
"""

from __future__ import annotations

from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.shape_inference import infer_shapes
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


class FuseEpilogues(GraphPass):
    """Residual ``Add`` [+ Relu|Relu6] into the Conv feeding it, and
    Relu|Relu6 into the BatchNormalization feeding it.

    ``Conv -> Add(., r) [-> act]`` becomes one Conv with inputs
    ``(x, w, bias or "", r)`` and the activation recorded, and the Conv
    takes the ``Add``'s place in the node list (``r`` may be computed
    after the conv's old place). The conv kernels add ``r`` after the bias
    and before the activation (``finalize_conv``), the unfused order, so
    outputs do not change by a bit. A Conv is refused when its output is a
    graph output or has another consumer, when it already carries an
    activation (it would run before the add) or a residual, and when the
    other operand's type is not the conv output's exactly (a broadcasting
    or dynamically shaped add). ``BatchNormalization -> act`` is refused
    on the same output rules.

    The fourth input and the BN ``activation`` are framework-internal:
    ONNX export rejects them. ``lower()`` runs this pass after
    quantization and only when optimizing, so the default pipeline, its
    exports and int8's QDQ islands never see a residual conv.
    """

    name = "fuse-epilogues"

    def apply(self, graph: Graph) -> int:
        output_names = set(graph.output_names)
        producers = graph.producers()
        consumers = graph.consumers()
        types = infer_shapes(graph)

        def sole_consumer(value: str) -> Node | None:
            users = consumers.get(value, ())
            if value in output_names or len(users) != 1:
                return None
            return users[0]

        def activation_after(value: str) -> tuple[Node, str] | None:
            user = sole_consumer(value)
            activation = (FuseConvActivation._classify(graph, user)
                          if user is not None else None)
            return None if activation is None else (user, activation)

        fused = 0
        moved: dict[int, Node] = {}   # id(Add) -> the conv taking its place
        dropped: set[int] = set()
        for node in graph.nodes:
            if node.op_type == "BatchNormalization":
                tail = activation_after(node.outputs[0])
                if tail is None or "activation" in node.attrs:
                    continue
                node.attrs.set("activation", tail[1])
                node.outputs[0] = tail[0].outputs[0]
                dropped.add(id(tail[0]))
                fused += 1
            elif node.op_type == "Add":
                conv = self._residual_conv(node, producers, types, sole_consumer)
                if conv is None:
                    continue
                conv_out = conv.outputs[0]
                residual = node.inputs[1] if node.inputs[0] == conv_out else node.inputs[0]
                conv.inputs[2:] = [conv.inputs[2] if len(conv.inputs) > 2 else "", residual]
                conv.outputs[0] = node.outputs[0]
                tail = activation_after(node.outputs[0])
                if tail is not None:
                    conv.attrs.set("activation", tail[1])
                    conv.outputs[0] = tail[0].outputs[0]
                    dropped.add(id(tail[0]))
                moved[id(node)] = conv
                dropped.add(id(conv))
                fused += 1
        if fused:
            graph.nodes = [moved.get(id(node), node) for node in graph.nodes
                           if id(node) not in dropped]
            graph.prune_initializers()  # a fused Clip's bounds
        return fused

    @staticmethod
    def _residual_conv(add: Node, producers, types, sole_consumer) -> Node | None:
        """The Conv ``add`` can become the epilogue of, or None."""
        for slot in (0, 1):
            conv = producers.get(add.inputs[slot])
            if conv is None or conv.op_type != "Conv" or len(conv.inputs) > 3:
                continue
            if "activation" in conv.attrs or sole_consumer(conv.outputs[0]) is not add:
                continue
            other = add.inputs[1 - slot]
            shape, dtype = types[conv.outputs[0]]
            if other == conv.outputs[0] or types.get(other) != (shape, dtype):
                continue
            if any(dim < 0 for dim in shape):
                continue
            return conv
        return None
