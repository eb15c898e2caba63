"""Per-layer kernel autotuning.

Measures every candidate implementation on each layer's actual shapes and
returns per-node overrides naming the winner — the mechanism behind TVM's
AutoTVM (which the TVM framework simulation uses) and, in Orpheus itself,
the "infrastructure to run multiple inference experiments ... evaluating
individual layers" from the paper's contribution list.

Layers with identical signatures (op type, attributes, input shapes) share
one measurement, so tuning a deep network costs one sweep per *unique*
layer shape. Nothing persists between calls: winners live on in the
compiled engine that froze them (``Engine.tuned``), not in a side cache.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence

import numpy as np

from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.shape_inference import infer_shapes
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import REGISTRY, KernelImpl, KernelRegistry
from repro.tensor.dtype import DType


def _signature(node: Node, shapes: Sequence[tuple[int, ...]]) -> tuple:
    attrs = []
    for key in sorted(node.attrs.keys()):
        value = node.attrs.as_dict()[key]
        if isinstance(value, np.ndarray):
            value = (value.shape, value.tobytes())
        attrs.append((key, value))
    return (node.op_type, tuple(attrs), tuple(shapes))


def _random_inputs(
    node: Node,
    graph: Graph,
    value_types: Mapping[str, tuple[tuple[int, ...], DType]],
    rng: np.random.Generator,
) -> list[np.ndarray]:
    inputs = []
    for name in node.inputs:
        if not name:
            inputs.append(np.empty(0, dtype=np.float32))
            continue
        if name in graph.initializers:
            inputs.append(graph.initializers[name])
            continue
        shape, dtype = value_types[name]
        concrete = tuple(1 if dim == -1 else dim for dim in shape)
        inputs.append(rng.standard_normal(concrete).astype(dtype.np))
    return inputs


def autotune(
    graph: Graph,
    candidates: Mapping[str, Sequence[str]],
    repeats: int = 2,
    registry: KernelRegistry = REGISTRY,
    seed: int = 0,
) -> dict[str, str]:
    """Pick the fastest implementation per node by measurement.

    Args:
        graph: the (already simplified) graph to tune.
        candidates: op type -> implementation names to race. Ops not listed
            are left to the backend's static policy.
        repeats: timed runs per candidate (see :func:`time_kernel`).
        registry: kernel registry to resolve names against.
        seed: RNG seed for synthetic activations.

    Returns:
        ``{node_name: winning_impl_name}`` suitable for
        :meth:`repro.backends.Backend.with_overrides`.
    """
    value_types = infer_shapes(graph)
    ctx = ExecutionContext()
    rng = np.random.default_rng(seed)
    measured: dict[tuple, str] = {}
    overrides: dict[str, str] = {}
    for node in graph.toposort():
        names = candidates.get(node.op_type)
        if not names:
            continue
        shapes = [value_types[name][0] if name else () for name in node.inputs]
        key = _signature(node, shapes)
        winner = measured.get(key)
        if winner is None:
            winner = _race(node, names, shapes, graph, value_types, ctx,
                           rng, repeats, registry)
            if winner is None:
                continue  # no candidate applicable; backend default applies
            measured[key] = winner
        overrides[node.name] = winner
    return overrides


def _race(
    node: Node,
    names: Sequence[str],
    shapes: Sequence[tuple[int, ...]],
    graph: Graph,
    value_types: Mapping[str, tuple[tuple[int, ...], DType]],
    ctx: ExecutionContext,
    rng: np.random.Generator,
    repeats: int,
    registry: KernelRegistry,
) -> str | None:
    inputs = _random_inputs(node, graph, value_types, rng)
    best_name = None
    best_time = float("inf")
    for name in names:
        try:
            impl = registry.get(node.op_type, name)
        except Exception:
            continue
        if not impl.supports(node, shapes):
            continue
        # `supports` is advisory and some kernels only discover
        # incompatibility when they execute: a candidate that raises is
        # skipped, not allowed to take the whole tuning sweep down.
        try:
            elapsed = time_kernel(impl, inputs, node, ctx, repeats)
        except Exception:
            continue
        if elapsed < best_time:
            best_time = elapsed
            best_name = name
    return best_name


def time_kernel(
    impl: KernelImpl,
    inputs: Sequence[np.ndarray],
    node: Node,
    ctx: ExecutionContext,
    repeats: int,
) -> float:
    """Best-of-``max(repeats, 1)`` seconds for one isolated kernel call.

    The one isolated-kernel timer (:func:`autotune` and the bench layer
    race share it). One untimed warm-up call comes first: it fills the
    weight-derived ``ctx`` caches and doubles as a correctness smoke test.
    """
    impl.fn(inputs, node, ctx)
    best = float("inf")
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        impl.fn(inputs, node, ctx)
        best = min(best, time.perf_counter() - started)
    return best
