"""Liveness-based activation memory planning.

Edge devices are memory constrained; the planner computes, for a fixed
execution schedule, when each intermediate value dies, assigns values to
reusable arena slots (greedy interval colouring), and reports both the
naive sum of all activations and the arena peak — the memory-footprint
numbers the benchmark harness reports.

The executor uses :attr:`MemoryPlan.release_after` to drop dead arrays as
soon as their last consumer has run, so the plan is not just analytical:
it bounds the true resident set of a run.
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
class SlotAssignment:
    """One value's placement in the arena."""

    value: str
    slot: int
    nbytes: int
    first_use: int  # schedule index producing the value
    last_use: int   # schedule index of the last consumer


@dataclasses.dataclass(frozen=True)
class MemoryPlan:
    """The planner's full output for one (graph, schedule) pair."""

    release_after: dict[int, list[str]]  # schedule index -> values now dead
    assignments: dict[str, SlotAssignment]
    slot_sizes: list[int]               # arena slot capacities
    peak_bytes: int                     # max live activation bytes at any step
    total_activation_bytes: int         # sum of all activations (no reuse)
    weight_bytes: int

    @property
    def arena_bytes(self) -> int:
        """Total arena capacity under slot reuse."""
        return sum(self.slot_sizes)

    @property
    def reuse_factor(self) -> float:
        """How much memory slot reuse saves vs no planning."""
        if self.arena_bytes == 0:
            return 1.0
        return self.total_activation_bytes / self.arena_bytes


def plan_memory(
    graph: Graph,
    value_types: dict[str, ValueType],
    schedule: list[Node],
) -> MemoryPlan:
    """Compute liveness, slot assignment, and footprint for ``schedule``."""
    keep_alive = set(graph.output_names) | set(graph.input_names)
    weight_names = set(graph.initializers)

    first_use: dict[str, int] = {}
    last_use: dict[str, int] = {}
    for index, node in enumerate(schedule):
        for out in node.outputs:
            first_use.setdefault(out, index)
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

    # Intermediate (plannable) values: produced by some node, not an output.
    intermediates = [
        value for value in first_use
        if value not in keep_alive and value in value_types
    ]
    intervals = sorted(
        intermediates,
        key=lambda value: (first_use[value], last_use[value]),
    )

    # Greedy slot assignment: a slot is free once the interval using it ends.
    slot_busy_until: list[int] = []  # per slot, last schedule index in use
    slot_sizes: list[int] = []
    assignments: dict[str, SlotAssignment] = {}
    for value in intervals:
        size = _nbytes(value_types[value])
        start, stop = first_use[value], last_use[value]
        chosen = -1
        for slot, busy_until in enumerate(slot_busy_until):
            if busy_until < start:
                chosen = slot
                break
        if chosen == -1:
            chosen = len(slot_busy_until)
            slot_busy_until.append(stop)
            slot_sizes.append(size)
        else:
            slot_busy_until[chosen] = stop
            slot_sizes[chosen] = max(slot_sizes[chosen], size)
        assignments[value] = SlotAssignment(
            value=value, slot=chosen, nbytes=size,
            first_use=start, last_use=stop,
        )

    # Peak live bytes across the schedule (outputs stay live to the end).
    live: dict[str, int] = {}
    peak = 0
    for index, node in enumerate(schedule):
        for out in node.outputs:
            if out in value_types:
                live[out] = _nbytes(value_types[out])
        peak = max(peak, sum(live.values()))
        for value in release_after.get(index, ()):
            live.pop(value, None)

    total_activation = sum(
        _nbytes(value_types[value]) for value in first_use if value in value_types)
    weight_bytes = sum(int(array.nbytes) for array in graph.initializers.values())
    return MemoryPlan(
        release_after=release_after,
        assignments=assignments,
        slot_sizes=slot_sizes,
        peak_bytes=peak,
        total_activation_bytes=total_activation,
        weight_bytes=weight_bytes,
    )


def footprint_report(plan: MemoryPlan) -> str:
    """Human-readable footprint summary."""

    def fmt(nbytes: int) -> str:
        if nbytes >= 1 << 20:
            return f"{nbytes / (1 << 20):.2f} MiB"
        if nbytes >= 1 << 10:
            return f"{nbytes / (1 << 10):.2f} KiB"
        return f"{nbytes} B"

    return (
        f"weights {fmt(plan.weight_bytes)}; "
        f"activations {fmt(plan.total_activation_bytes)} unplanned, "
        f"{fmt(plan.arena_bytes)} arena ({plan.reuse_factor:.2f}x reuse), "
        f"peak live {fmt(plan.peak_bytes)}"
    )
