"""Per-layer profiling: the paper's "evaluating ... individual layers".

A profile aggregates per-node wall time over repeated runs into stable
statistics, groupable by operator type or by implementation — the data
behind every per-layer experiment in the benchmark harness.
"""

from __future__ import annotations

import dataclasses
import statistics
from collections.abc import Sequence

from repro.runtime.executor import NodeTiming


class Samples:
    """Statistics over a non-empty ``times`` tuple (seconds).

    Mixed into every timing record (:class:`LayerProfile`, the bench
    stack's ``RunStats``/``SweepPoint``, the frameworks' ``Measurement``)
    so a reported statistic means the same thing everywhere.
    """

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.times:
            raise ValueError(
                f"{type(self).__name__} needs at least one timing sample")

    @property
    def median(self) -> float:
        return statistics.median(self.times)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.times)

    @property
    def best(self) -> float:
        """Min-of-N — the noise-robust statistic for ranking claims."""
        return min(self.times)

    @property
    def stdev(self) -> float:
        return statistics.stdev(self.times) if len(self.times) > 1 else 0.0


@dataclasses.dataclass(frozen=True)
class LayerProfile(Samples):
    """Timing samples for one node across repeats."""

    node_name: str
    op_type: str
    impl: str
    times: tuple[float, ...]


@dataclasses.dataclass(frozen=True)
class ProfileResult:
    """A full-network profile: one :class:`LayerProfile` per node."""

    layers: tuple[LayerProfile, ...]
    repeats: int

    @property
    def total_median(self) -> float:
        """Sum of per-layer medians — the stable whole-network time."""
        return sum(layer.median for layer in self.layers)

    def by_op_type(self) -> dict[str, float]:
        """Median time aggregated per operator type, heaviest first."""
        totals: dict[str, float] = {}
        for layer in self.layers:
            totals[layer.op_type] = totals.get(layer.op_type, 0.0) + layer.median
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    def by_impl(self) -> dict[str, float]:
        """Median time aggregated per kernel implementation."""
        totals: dict[str, float] = {}
        for layer in self.layers:
            key = f"{layer.op_type}:{layer.impl}"
            totals[key] = totals.get(key, 0.0) + layer.median
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    def hottest(self, count: int = 10) -> list[LayerProfile]:
        return sorted(self.layers, key=lambda layer: -layer.median)[:count]

    def table(self, count: int = 0) -> str:
        """Aligned text table of the (optionally top-``count``) layers."""
        rows = self.hottest(count) if count else list(self.layers)
        name_width = max([len(row.node_name) for row in rows] + [4])
        lines = [
            f"{'node':<{name_width}}  {'op':<22} {'impl':<18} "
            f"{'median(ms)':>10} {'min(ms)':>10}"
        ]
        for row in rows:
            lines.append(
                f"{row.node_name:<{name_width}}  {row.op_type:<22} "
                f"{row.impl:<18} {row.median * 1e3:>10.3f} "
                f"{row.best * 1e3:>10.3f}")
        lines.append(f"total (sum of medians): {self.total_median * 1e3:.3f} ms "
                     f"over {self.repeats} repeats")
        return "\n".join(lines)


def collate(runs: Sequence[Sequence[NodeTiming]]) -> ProfileResult:
    """Combine per-run node timings into a :class:`ProfileResult`.

    All runs must have executed the same schedule (same nodes, same order).
    """
    if not runs:
        raise ValueError("collate needs at least one run")
    first = runs[0]
    layers = []
    for position, timing in enumerate(first):
        times = []
        for run in runs:
            entry = run[position]
            if entry.node is not timing.node:
                raise ValueError("profile runs executed different schedules")
            times.append(entry.seconds)
        layers.append(LayerProfile(
            node_name=timing.node.name,
            op_type=timing.node.op_type,
            impl=timing.impl.name,
            times=tuple(times),
        ))
    return ProfileResult(layers=tuple(layers), repeats=len(runs))
