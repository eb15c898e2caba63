"""Memory-footprint analysis for whole models.

Combines the weight inventory with the runtime memory planner's activation
arena to answer the edge-deployment question: *how much RAM does one
inference of this model need?*
"""

from __future__ import annotations

import dataclasses

from repro.backends import get_backend
from repro.config import RuntimeConfig
from repro.ir.graph import Graph
from repro.runtime.executor import Executor
from repro.runtime.memory_planner import MemoryPlan


@dataclasses.dataclass(frozen=True)
class FootprintReport:
    """Model memory requirements, planned vs unplanned."""

    model: str
    weight_bytes: int
    activation_bytes_unplanned: int
    activation_bytes_arena: int
    peak_live_bytes: int

    @property
    def total_planned_bytes(self) -> int:
        """Deployable footprint: weights + reused activation arena."""
        return self.weight_bytes + self.activation_bytes_arena

    @property
    def total_unplanned_bytes(self) -> int:
        return self.weight_bytes + self.activation_bytes_unplanned

    @property
    def planner_saving(self) -> float:
        """Fraction of activation memory the arena planner saves."""
        if self.activation_bytes_unplanned == 0:
            return 0.0
        return 1.0 - (self.activation_bytes_arena
                      / self.activation_bytes_unplanned)

    def summary(self) -> str:
        mib = 1 << 20
        return (
            f"{self.model}: weights {self.weight_bytes / mib:.1f} MiB, "
            f"activations {self.activation_bytes_unplanned / mib:.1f} MiB "
            f"-> {self.activation_bytes_arena / mib:.1f} MiB with arena "
            f"reuse ({self.planner_saving:.0%} saved), "
            f"peak live {self.peak_live_bytes / mib:.1f} MiB")


def plan_for_graph(graph: Graph) -> MemoryPlan:
    """Run the memory planner as the executor would."""
    executor = Executor(
        graph, get_backend("orpheus"), RuntimeConfig())
    return executor.plan


def footprint(graph: Graph, model_name: str = "") -> FootprintReport:
    """Compute the footprint report for an (ideally optimised) graph."""
    plan = plan_for_graph(graph)
    return FootprintReport(
        model=model_name or graph.name,
        weight_bytes=plan.weight_bytes,
        activation_bytes_unplanned=plan.total_activation_bytes,
        activation_bytes_arena=plan.arena_bytes,
        peak_live_bytes=plan.peak_bytes,
    )
