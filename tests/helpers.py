"""Test helpers importable from any test module (``from tests.helpers import ...``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir.node import Node
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import REGISTRY


def make_conv_node(
    kernel=(3, 3), strides=(1, 1), pads=(1, 1, 1, 1), dilations=(1, 1),
    group=1, name="conv", extra_attrs=None, with_bias=True,
) -> Node:
    """A Conv node with explicit geometry (no graph required)."""
    attrs = {
        "kernel_shape": tuple(kernel),
        "strides": tuple(strides),
        "pads": tuple(pads),
        "dilations": tuple(dilations),
        "group": group,
    }
    if extra_attrs:
        attrs.update(extra_attrs)
    inputs = ["x", "w", "b"] if with_bias else ["x", "w"]
    return Node("Conv", inputs, ["y"], attrs, name=name)


def conv_reference_check(impl_name: str, inputs, node: Node,
                         rtol: float = 2e-4, atol: float = 2e-4,
                         ctx: ExecutionContext | None = None) -> None:
    """Assert that ``impl_name`` matches the loop-reference convolution.

    ``impl_name`` runs on ``ctx`` (a fresh default context if None); the
    reference always runs on a fresh one. Skips (rather than fails) when
    the implementation's applicability predicate rules the configuration
    out — inapplicable is not incorrect.
    """
    shapes = [np.asarray(i).shape for i in inputs]
    impl = REGISTRY.get("Conv", impl_name)
    if not impl.supports(node, shapes):
        pytest.skip(f"{impl_name} not applicable to this configuration")
    reference = REGISTRY.get("Conv", "reference")
    expected = reference.fn(list(inputs), node, ExecutionContext())[0]
    actual = impl.fn(list(inputs), node, ctx or ExecutionContext())[0]
    assert actual.shape == expected.shape, (
        f"{impl_name}: shape {actual.shape} != reference {expected.shape}")
    assert actual.dtype == expected.dtype
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol,
                               err_msg=f"implementation {impl_name} diverges")
