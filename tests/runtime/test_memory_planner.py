"""Memory planner: liveness, slot reuse, footprint accounting."""

import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.shape_inference import infer_shapes
from repro.runtime.memory_planner import footprint_report, plan_memory
from tests.conftest import tiny_classifier


def plan_for(graph):
    return plan_memory(graph, infer_shapes(graph), graph.toposort())


def chain_graph(length=5, width=64):
    builder = GraphBuilder()
    x = builder.input("input", (1, width))
    y = x
    for _ in range(length):
        y = builder.relu(y)
    builder.output(y)
    return builder.finish()


class TestLiveness:
    def test_chain_releases_every_intermediate(self):
        graph = chain_graph()
        plan = plan_for(graph)
        released = [v for names in plan.release_after.values() for v in names]
        # All intermediates except the final output die.
        assert len(released) == len(graph.nodes) - 1

    def test_outputs_never_released(self):
        graph = tiny_classifier()
        plan = plan_for(graph)
        released = {v for names in plan.release_after.values() for v in names}
        assert not released & set(graph.output_names)

    def test_inputs_never_released(self):
        graph = tiny_classifier()
        plan = plan_for(graph)
        released = {v for names in plan.release_after.values() for v in names}
        assert "input" not in released

    def test_release_is_after_last_consumer(self):
        builder = GraphBuilder()
        x = builder.input("input", (1, 8))
        a = builder.relu(x)
        b = builder.sigmoid(a)
        c = builder.add(a, b)  # `a` used again here
        builder.output(c)
        graph = builder.finish()
        plan = plan_for(graph)
        schedule = graph.toposort()
        add_index = next(i for i, n in enumerate(schedule)
                         if n.op_type == "Add")
        assert a in plan.release_after.get(add_index, [])


class TestSlotReuse:
    def test_chain_uses_two_slots(self):
        # a dies when b is computed, so slots ping-pong: 2 suffice.
        plan = plan_for(chain_graph(length=10))
        assert len(plan.slot_sizes) == 2

    def test_arena_smaller_than_total(self):
        plan = plan_for(chain_graph(length=10))
        assert plan.arena_bytes < plan.total_activation_bytes
        assert plan.reuse_factor > 2

    def test_slot_sized_to_largest_occupant(self):
        builder = GraphBuilder()
        x = builder.input("input", (1, 4, 8, 8))
        y = builder.relu(x)                      # 1KiB
        y = builder.conv(y, 16, 3, pad=1)        # 4KiB, reuses slot 0
        builder.output(builder.relu(y))
        graph = builder.finish()
        plan = plan_for(graph)
        assert max(plan.slot_sizes) >= 16 * 8 * 8 * 4

    def test_assignments_dont_overlap_in_time(self):
        graph = tiny_classifier()
        plan = plan_for(graph)
        by_slot: dict[int, list] = {}
        for assignment in plan.assignments.values():
            by_slot.setdefault(assignment.slot, []).append(assignment)
        for assignments in by_slot.values():
            assignments.sort(key=lambda a: a.first_use)
            for earlier, later in zip(assignments, assignments[1:]):
                assert earlier.last_use < later.first_use


class TestFootprint:
    def test_weight_bytes_match_initializers(self):
        graph = tiny_classifier()
        plan = plan_for(graph)
        assert plan.weight_bytes == sum(
            a.nbytes for a in graph.initializers.values())

    def test_peak_at_least_largest_value(self):
        graph = tiny_classifier()
        plan = plan_for(graph)
        values = infer_shapes(graph)
        biggest = max(
            int(np.prod([max(d, 1) for d in shape])) * dtype.itemsize
            for name, (shape, dtype) in values.items()
            if name not in graph.initializers and name not in graph.input_names)
        assert plan.peak_bytes >= biggest

    def test_peak_not_more_than_total(self):
        plan = plan_for(tiny_classifier())
        assert plan.peak_bytes <= plan.total_activation_bytes

    def test_report_is_readable(self):
        text = footprint_report(plan_for(tiny_classifier()))
        assert "weights" in text and "arena" in text and "peak" in text


class TestDegenerateShapes:
    def test_symbolic_batch_dim_plans_cleanly(self):
        """Symbolic (-1) dims are counted as 1 until prepare resolves them;
        the plan must still be internally consistent, not crash or go
        negative."""
        builder = GraphBuilder()
        x = builder.input("input", (-1, 16))
        y = builder.relu(builder.relu(x))
        builder.output(y)
        plan = plan_for(builder.finish())
        assert plan.peak_bytes > 0
        assert plan.peak_bytes <= plan.total_activation_bytes

    def test_zero_size_value_plans_cleanly(self):
        builder = GraphBuilder()
        x = builder.input("input", (0, 8))
        builder.output(builder.relu(x))
        plan = plan_for(builder.finish())
        assert plan.peak_bytes >= 0
        assert all(size >= 0 for size in plan.slot_sizes)
        assert plan.arena_bytes <= plan.total_activation_bytes


class TestArenaNeverWorseThanNaive:
    """Property: slot reuse can only shrink the footprint.

    The naive allocator keeps every activation live for the whole run
    (total_activation_bytes); the planner's arena and resident peak must
    never exceed that, whatever the graph shape.
    """

    def test_property_random_chains(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=40, deadline=None)
        @given(length=st.integers(1, 12), width=st.integers(1, 64),
               branch_at=st.integers(0, 11))
        def check(length, width, branch_at):
            builder = GraphBuilder()
            x = builder.input("input", (1, width))
            values = [x]
            y = x
            for _ in range(length):
                y = builder.relu(y)
                values.append(y)
            if branch_at < length:
                # A long-lived value: consumed again at the very end.
                y = builder.add(values[branch_at], y)
            builder.output(y)
            plan = plan_for(builder.finish())
            assert plan.arena_bytes <= plan.total_activation_bytes
            assert plan.peak_bytes <= plan.total_activation_bytes
            assert plan.arena_bytes >= 0 and plan.peak_bytes >= 0

        check()
