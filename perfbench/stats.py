"""The benchmark's one statistics vocabulary (stdlib only)."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: (percentile, samples beyond it per 10 000) — integers, so the rule is exact.
_LADDER = ((50.0, 5000), (75.0, 2500), (90.0, 1000), (95.0, 500),
           (99.0, 100), (99.9, 10))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 50.0)


def highest_percentile(count: int) -> float:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it.

    ``count * (1 - q/100) >= MIN_BEYOND``; the median when even that
    fails (fewer than 20 samples).
    """
    supported = [q for q, beyond in _LADDER
                 if count * beyond >= MIN_BEYOND * 10_000]
    return supported[-1] if supported else 50.0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    first, middle, third = statistics.quantiles(values, n=4)
    return (third - first) / middle if middle else 0.0
