"""ONNX import: model bytes -> framework :class:`~repro.ir.graph.Graph`.

This is the paper's "system to parse pre-trained models exported to the
ONNX format from popular training frameworks". The op set is validated
against the runtime's shape-inference registry, so unsupported models fail
at import with a clear message rather than mid-execution.
"""

from __future__ import annotations

from repro.errors import OnnxError, UnsupportedOpError
from repro.ir.graph import Graph, ValueInfo
from repro.ir.node import Node
from repro.ir.shape_inference import has_shape_fn
from repro.ops import validate_node
from repro.onnx.schema import GraphProto, ModelProto, ValueInfoProto
from repro.tensor.dtype import DType

#: Hard cap on graph size. Model files cross the trust boundary; a hostile
#: GraphProto enumerating millions of nodes must fail with a catchable
#: OnnxError before per-node validation starts chewing through them.
MAX_GRAPH_NODES = 100_000


def _value_info(proto: ValueInfoProto) -> ValueInfo:
    # Fuzz finding: a bitflip can blank the name or scramble the dtype
    # code; both must surface as OnnxError at the ingestion boundary, not
    # as the IR's internal ValueError.
    if not proto.name:
        raise OnnxError("graph input/output without a name (corrupt model)")
    dims = tuple(-1 if isinstance(dim, str) or dim < 0 else int(dim)
                 for dim in proto.dims)
    try:
        dtype = DType.from_onnx(proto.elem_type)
    except ValueError as exc:
        raise OnnxError(f"value {proto.name!r}: {exc}") from exc
    return ValueInfo(proto.name, dims, dtype)


def graph_from_proto(proto: GraphProto) -> Graph:
    """Convert a parsed GraphProto into a validated framework graph."""
    if len(proto.node) > MAX_GRAPH_NODES:
        raise OnnxError(
            f"graph declares {len(proto.node)} nodes, over the "
            f"{MAX_GRAPH_NODES} cap (hostile or corrupt model)")
    initializers = {}
    for tensor in proto.initializer:
        if not tensor.name:
            raise OnnxError("initializer without a name")
        initializers[tensor.name] = tensor.to_numpy()
    # ONNX lists initializers in graph.input too; real inputs are the rest.
    inputs = [
        _value_info(info) for info in proto.input
        if info.name not in initializers
    ]
    outputs = [_value_info(info) for info in proto.output]
    nodes = []
    for node_proto in proto.node:
        if node_proto.domain not in ("", "ai.onnx"):
            raise UnsupportedOpError(
                f"node {node_proto.name!r}: unsupported domain "
                f"{node_proto.domain!r}")
        if not has_shape_fn(node_proto.op_type):
            raise UnsupportedOpError(
                f"unsupported ONNX op {node_proto.op_type!r} "
                f"(node {node_proto.name!r})")
        if not node_proto.output:
            raise OnnxError(
                f"node {node_proto.name!r} ({node_proto.op_type}) declares "
                "no outputs")
        attrs = {attr.name: attr.to_value() for attr in node_proto.attribute}
        node = Node(
            op_type=node_proto.op_type,
            inputs=list(node_proto.input),
            outputs=list(node_proto.output),
            attrs=attrs,
            name=node_proto.name,
        )
        validate_node(node)
        nodes.append(node)
    graph = Graph(
        name=proto.name or "imported",
        inputs=inputs,
        outputs=outputs,
        nodes=nodes,
        initializers=initializers,
    )
    graph.validate()
    return graph


def load_model_bytes(data: "bytes | bytearray | memoryview") -> Graph:
    """Parse serialized ONNX ``ModelProto`` bytes into a framework graph.

    Decoding copies nothing; each initializer is then copied out once, so
    the returned graph shares no memory with ``data``.
    """
    model = ModelProto.parse(data)
    if model.graph is None:
        raise OnnxError("model has no graph")
    for opset in model.opset_import:
        if opset.domain in ("", "ai.onnx") and not 1 <= opset.version <= 21:
            raise OnnxError(f"unsupported default-domain opset {opset.version}")
    return graph_from_proto(model.graph)


def load_model(path: str) -> Graph:
    """Load an ``.onnx`` file from disk."""
    with open(path, "rb") as handle:
        return load_model_bytes(handle.read())
