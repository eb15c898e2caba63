"""Liveness-based activation memory planning.

Edge devices are memory constrained; the planner computes, for a fixed
execution schedule, when each intermediate value dies and reports both
the naive sum of all activations and the peak of live activations — the
memory-footprint numbers the benchmark harness reports.

The executor uses :attr:`MemoryPlan.release_after` to drop dead arrays as
soon as their last consumer has run, so the plan is not just analytical:
it bounds the true resident set of a run. The plan is a pure function of
(graph, value types, schedule); it is derived at prepare and at engine
load alike, never stored.
"""

from __future__ import annotations

import dataclasses


from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.shape_inference import ValueType


def _nbytes(value_type: ValueType) -> int:
    shape, dtype = value_type
    if not shape:
        return dtype.itemsize
    count = 1
    for dim in shape:
        count *= max(dim, 1)  # symbolic dims counted as 1 (resolved at prepare)
    return count * dtype.itemsize


@dataclasses.dataclass(frozen=True)
class MemoryPlan:
    """The planner's full output for one (graph, schedule) pair."""

    release_after: dict[int, list[str]]  # schedule index -> values now dead
    peak_bytes: int                     # max live activation bytes at any step
    total_activation_bytes: int         # sum of all activations (no reuse)
    weight_bytes: int

    @property
    def arena_bytes(self) -> int:
        """Alias of :attr:`peak_bytes`, read by perfbench's
        ``runtime.arena_bytes`` row; goes with that row in the next
        ``benchmark`` PR."""
        return self.peak_bytes


def plan_memory(
    graph: Graph,
    value_types: dict[str, ValueType],
    schedule: list[Node],
) -> MemoryPlan:
    """Compute liveness and footprint for ``schedule``."""
    keep_alive = set(graph.output_names) | set(graph.input_names)
    weight_names = set(graph.initializers)

    last_use: dict[str, int] = {}
    for index, node in enumerate(schedule):
        for out in node.outputs:
            last_use.setdefault(out, index)
        for inp in node.present_inputs:
            if inp in weight_names:
                continue
            last_use[inp] = index

    release_after: dict[int, list[str]] = {}
    for value, index in last_use.items():
        if value in keep_alive:
            continue
        release_after.setdefault(index, []).append(value)

    # Peak live bytes across the schedule (outputs stay live to the end).
    live: dict[str, int] = {}
    current = peak = total_activation = 0
    for index, node in enumerate(schedule):
        for out in node.outputs:
            if out in value_types:
                live[out] = _nbytes(value_types[out])
                current += live[out]
                total_activation += live[out]
        peak = max(peak, current)
        for value in release_after.get(index, ()):
            current -= live.pop(value, 0)

    weight_bytes = sum(int(array.nbytes) for array in graph.initializers.values())
    return MemoryPlan(
        release_after=release_after,
        peak_bytes=peak,
        total_activation_bytes=total_activation,
        weight_bytes=weight_bytes,
    )
