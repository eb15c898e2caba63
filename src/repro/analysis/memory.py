"""Memory-footprint analysis for whole models.

Combines the weight inventory with the runtime memory planner's liveness
to answer the edge-deployment question: *how much RAM does one inference
of this model need?* Every figure is one the executor realises: it
releases each intermediate after its last consumer, so live activations
peak at ``peak_live_bytes``.
"""

from __future__ import annotations

import dataclasses

from repro.ir.graph import Graph
from repro.ir.shape_inference import infer_shapes
from repro.runtime.memory_planner import plan_memory


@dataclasses.dataclass(frozen=True)
class FootprintReport:
    """Model memory requirements: weights, all activations, peak live."""

    model: str
    weight_bytes: int
    activation_bytes_unplanned: int
    peak_live_bytes: int

    @property
    def total_unplanned_bytes(self) -> int:
        return self.weight_bytes + self.activation_bytes_unplanned

    def summary(self) -> str:
        mib = 1 << 20
        return (
            f"{self.model}: weights {self.weight_bytes / mib:.1f} MiB, "
            f"activations {self.activation_bytes_unplanned / mib:.1f} MiB "
            f"in total, peak live {self.peak_live_bytes / mib:.1f} MiB")


def footprint(graph: Graph, model_name: str = "") -> FootprintReport:
    """Compute the footprint report for an (ideally optimised) graph."""
    plan = plan_memory(graph, infer_shapes(graph), graph.toposort())
    return FootprintReport(
        model=model_name or graph.name,
        weight_bytes=plan.weight_bytes,
        activation_bytes_unplanned=plan.total_activation_bytes,
        peak_live_bytes=plan.peak_bytes,
    )
