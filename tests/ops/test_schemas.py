"""Operator schemas: arity and attribute validation."""

import pathlib

import pytest

from repro.errors import AttributeError_, UnsupportedOpError
from repro.ir.node import Node
from repro.ops import get_schema, schema_names, validate_node

_OPERATORS_DOC = (pathlib.Path(__file__).resolve().parents[2]
                  / "docs" / "operators.md")


def _documented_impls():
    """``{op: [impl, ...]}`` from the docs' operator table (``*`` kept)."""
    lines = _OPERATORS_DOC.read_text(encoding="utf-8").splitlines()
    start = lines.index("| op | kernel implementations |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        op, impls = (cell.strip() for cell in line.strip("|").split("|"))
        table[op.strip("`")] = [name.strip() for name in impls.split(",")]
    return table


class TestCatalogCoverage:
    def test_every_shape_inferable_op_has_a_schema(self):
        """And a kernel: the three registries name the same ops."""
        import repro.quant  # noqa: F401  (register quant ops)
        from repro.ir.shape_inference import supported_ops
        from repro.kernels import REGISTRY
        assert schema_names() == supported_ops() == REGISTRY.op_types()

    def test_operators_doc_table_is_the_kernel_registry(self):
        """docs/operators.md: every op, each impl in priority order,
        ``*`` on exactly the experimental ones."""
        import repro.quant  # noqa: F401  (register quant kernels)
        from repro.kernels import REGISTRY
        registered = {
            op: [impl.name + "*" * impl.experimental
                 for impl in REGISTRY.implementations(op)]
            for op in REGISTRY.op_types()}
        assert _documented_impls() == registered

    def test_schema_names_sorted(self):
        names = schema_names()
        assert names == sorted(names)

    def test_unknown_op_rejected(self):
        with pytest.raises(UnsupportedOpError, match="no schema"):
            get_schema("Quux")


class TestArity:
    def test_conv_accepts_two_or_three_inputs(self):
        validate_node(Node("Conv", ["x", "w"], ["y"],
                           {"kernel_shape": (3, 3)}))
        validate_node(Node("Conv", ["x", "w", "b"], ["y"],
                           {"kernel_shape": (3, 3)}))

    def test_conv_rejects_one_input(self):
        with pytest.raises(UnsupportedOpError, match="inputs"):
            validate_node(Node("Conv", ["x"], ["y"], {"kernel_shape": (3, 3)}))

    def test_bn_requires_five_inputs(self):
        with pytest.raises(UnsupportedOpError, match="inputs"):
            validate_node(Node("BatchNormalization", ["x", "s"], ["y"]))

    def test_dropout_allows_mask_output(self):
        validate_node(Node("Dropout", ["x"], ["y", "mask"]))

    def test_relu_rejects_two_outputs(self):
        with pytest.raises(UnsupportedOpError, match="outputs"):
            validate_node(Node("Relu", ["x"], ["y", "z"]))


class TestAttributes:
    def test_required_attribute_enforced(self):
        with pytest.raises(AttributeError_, match="missing required"):
            validate_node(Node("Concat", ["a", "b"], ["y"]))

    def test_unexpected_attribute_rejected_with_suggestion(self):
        node = Node("Conv", ["x", "w"], ["y"],
                    {"kernel_shape": (3, 3), "stride": (1, 1)})
        with pytest.raises(AttributeError_, match="did you mean 'strides'"):
            validate_node(node)

    def test_internal_activation_attribute_tolerated(self):
        validate_node(Node("Conv", ["x", "w"], ["y"],
                           {"kernel_shape": (3, 3), "activation": "relu"}))

    def test_constant_requires_value(self):
        import numpy as np
        with pytest.raises(AttributeError_, match="value"):
            validate_node(Node("Constant", [], ["y"]))
        validate_node(Node("Constant", [], ["y"],
                           {"value": np.zeros(1, np.float32)}))


class TestModelsValidate:
    def test_all_zoo_models_pass_schema_validation(self):
        from repro.models import zoo
        from repro.ops import validate_graph_nodes
        # Small-but-buildable resolutions (Inception's stem needs >= ~96 px).
        sizes = {"wrn-40-2": 32, "mobilenet-v1": 64, "resnet18": 64,
                 "resnet50": 64, "inception-v3": 128, "squeezenet": 64}
        for entry in zoo.list_models():
            graph = zoo.build(entry.name, image_size=sizes[entry.name])
            validate_graph_nodes(graph.nodes)
