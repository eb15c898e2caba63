"""Static analysis: MAC/FLOP counts, memory footprint, energy proxy."""

from repro.analysis.energy import EnergyModel, estimate_energy_mj
from repro.analysis.macs import GraphCost, OpCost, count_graph, node_macs
from repro.analysis.memory import FootprintReport, footprint

__all__ = [
    "EnergyModel",
    "FootprintReport",
    "GraphCost",
    "OpCost",
    "count_graph",
    "estimate_energy_mj",
    "footprint",
    "node_macs",
]
