"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.node import Node
from repro.kernels.context import ExecutionContext


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def ctx() -> ExecutionContext:
    return ExecutionContext()


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


def tiny_classifier(seed: int = 0, image: int = 8, channels: int = 4,
                    classes: int = 3, batch: int = 1) -> "GraphBuilder":
    """A small conv->pool->fc classifier graph (finished)."""
    builder = GraphBuilder("tiny", seed=seed)
    x = builder.input("input", (batch, 3, image, image))
    y = builder.conv_bn_relu(x, channels, 3, pad=1)
    y = builder.max_pool(y, 2)
    y = builder.global_average_pool(y)
    y = builder.flatten(y)
    y = builder.dense(y, classes)
    y = builder.softmax(y)
    builder.output(y)
    return builder.finish()


def baked_batch_classifier(target=(4, 256)) -> "Graph":
    """A batch-4 classifier that bakes its batch into a constant Reshape.

    ``(4, 256)`` cannot be shaped at any other batch; ``(4, -1)`` can, but
    its rows are then no longer requests.
    """
    builder = GraphBuilder("baked", seed=0)
    x = builder.input("input", (4, 3, 8, 8))
    y = builder.conv_bn_relu(x, 4, 3, pad=1)
    y = builder.node("Reshape", [y, builder.constant(
        np.asarray(target, dtype=np.int64), "shape")])
    if target[1] != -1:
        y = builder.dense(y, 3)
    builder.output(builder.softmax(y))
    return builder.finish()


@pytest.fixture
def tiny_graph():
    return tiny_classifier()


def assert_release_keeps_inputs_live(graph, plan, schedule):
    """Walk ``schedule`` applying ``release_after`` as the executor does:
    every node's non-weight inputs are still live when it runs."""
    live = set(graph.input_names)
    for index, node in enumerate(schedule):
        for name in node.present_inputs:
            assert name in live or name in graph.initializers, (
                f"{node.name} reads {name!r} after its release")
        live.update(node.outputs)
        live.difference_update(plan.release_after.get(index, ()))
    assert set(graph.output_names) <= live
