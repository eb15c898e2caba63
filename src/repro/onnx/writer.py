"""ONNX export: framework :class:`~repro.ir.graph.Graph` -> model bytes.

Round-tripping through the exporter and importer is the contract the
test suite enforces: ``load_model_bytes(save_model_bytes(g))`` must be
semantically identical to ``g``.
"""

from __future__ import annotations

from repro.errors import OnnxError
from repro.ir.graph import Graph, ValueInfo
from repro.onnx.schema import (
    AttributeProto,
    GraphProto,
    ModelProto,
    NodeProto,
    OperatorSetIdProto,
    TensorProto,
    ValueInfoProto,
)

_EXPORT_OPSET = 13

# Framework-private attributes that must not leak into ONNX files.
_INTERNAL_ATTRS = frozenset({"activation"})


def _value_info_proto(info: ValueInfo) -> ValueInfoProto:
    return ValueInfoProto(
        name=info.name,
        elem_type=info.dtype.onnx_code,
        dims=[dim if dim >= 0 else f"dyn_{axis}"
              for axis, dim in enumerate(info.shape)],
    )


def graph_to_proto(graph: Graph, internal: bool = False) -> GraphProto:
    """Convert a framework graph into a GraphProto.

    ``internal=True`` permits framework-private attributes (the fused
    ``activation`` marker) and inputs (a Conv's fused residual) in the
    output — used by the engine serializer
    (:mod:`repro.engine`), whose files never leave the framework. Plain
    ONNX export keeps rejecting them so optimised graphs cannot leak
    non-standard attributes into ``.onnx`` files.
    """
    graph.validate()
    proto = GraphProto(name=graph.name)
    for node in graph.nodes:
        if node.op_type == "Conv" and len(node.inputs) > 3 and not internal:
            raise OnnxError(
                f"node {node.name!r} carries a framework-internal residual "
                f"input; export the unoptimised graph")
        attrs = []
        for name in sorted(node.attrs.keys()):
            if name in _INTERNAL_ATTRS and not internal:
                raise OnnxError(
                    f"node {node.name!r} carries framework-internal attribute "
                    f"{name!r}; export the unoptimised graph")
            attrs.append(AttributeProto.from_value(
                name, node.attrs.as_dict()[name]))
        proto.node.append(NodeProto(
            input=list(node.inputs),
            output=list(node.outputs),
            name=node.name,
            op_type=node.op_type,
            attribute=attrs,
        ))
    for name, array in graph.initializers.items():
        proto.initializer.append(TensorProto.from_numpy(array, name=name))
    for info in graph.inputs:
        proto.input.append(_value_info_proto(info))
    for info in graph.outputs:
        proto.output.append(_value_info_proto(info))
    return proto


def save_model_bytes(graph: Graph, internal: bool = False) -> bytes:
    """Serialize ``graph`` as ONNX ``ModelProto`` bytes.

    ``internal=True`` is the engine serializer's escape hatch for
    framework-private attributes; see :func:`graph_to_proto`.
    """
    model = ModelProto(
        graph=graph_to_proto(graph, internal=internal),
        opset_import=[OperatorSetIdProto(domain="", version=_EXPORT_OPSET)],
    )
    return model.serialize()


def save_model(graph: Graph, path: str) -> None:
    """Write ``graph`` to an ``.onnx`` file."""
    data = save_model_bytes(graph)
    with open(path, "wb") as handle:
        handle.write(data)
