"""Building a zoo model: each node is typed once, and the builder's types
agree with a fresh whole-graph inference.

Counts, not timings: a builder that re-infers the whole graph after every
node calls the shape functions quadratically often (~9.3k calls for
wrn-40-2's 136 nodes) and fails the count below.
"""

from collections import Counter

import pytest

from repro.ir import shape_inference
from repro.ir.builder import GraphBuilder
from repro.ir.shape_inference import infer_shapes
from repro.models import build, get_entry, list_models

REDUCED_SIZES = [
    ("wrn-40-2", 32), ("mobilenet-v1", 64), ("resnet18", 64),
    ("resnet50", 64), ("inception-v3", 128), ("squeezenet", 64),
]


def test_reduced_sizes_cover_the_zoo():
    assert {name for name, _ in REDUCED_SIZES} == {e.name for e in list_models()}


@pytest.mark.parametrize("name,size", REDUCED_SIZES)
def test_building_calls_each_shape_function_once_per_node(name, size, monkeypatch):
    calls: Counter[str] = Counter()

    def counting(op_type, fn):
        def wrapper(node, inputs, ctx):
            calls[op_type] += 1
            return fn(node, inputs, ctx)
        return wrapper

    for op_type, fn in list(shape_inference._SHAPE_FNS.items()):
        monkeypatch.setitem(shape_inference._SHAPE_FNS, op_type, counting(op_type, fn))
    graph = build(name, image_size=size)
    assert calls == Counter(graph.op_histogram())


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("name", [e.name for e in list_models()])
def test_tracked_types_equal_fresh_inference(name, batch, monkeypatch):
    # Compared at finish(): the zoo renames the output value afterwards.
    pairs = []
    finish = GraphBuilder.finish

    def recording_finish(self):
        graph = finish(self)
        pairs.append((dict(self._types), infer_shapes(graph)))
        return graph

    monkeypatch.setattr(GraphBuilder, "finish", recording_finish)
    graph = build(name, batch=batch)
    ((tracked, fresh),) = pairs
    assert tracked == fresh
    classes = get_entry(name).num_classes
    assert infer_shapes(graph)[graph.output_names[0]][0] == (batch, classes)
