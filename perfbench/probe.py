"""Host-speed probe and the calibration arithmetic built on it.

On a small shared host the same code's raw median drifts by tens of percent
over minutes. The probe is a fixed piece of work that imports nothing from
the program under test — compute-bound (sgemm), memory-bound (one streaming
pass) and interpreter-bound (a dict loop), the three regimes the workloads
mix — run between blocks of timed samples. A sample's time is divided by
``probe_measured / PROBE_REF_S`` of its neighbouring probes, which states it
in reference-host seconds: host drift moves probe and sample together and
cancels; a change to the program moves only the sample.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one probe takes on the reference host (the host this benchmark
#: was defined on, one kernel thread). A constant of the benchmark: changing
#: it rescales every time-valued metric.
PROBE_REF_S = 0.0065

_GEMM_DIM = 384
_GEMM_REPEATS = 4
_STREAM_BYTES = 8 << 20
_DICT_ITERATIONS = 20_000
#: A probe point is the median of this many probes: one may be interrupted.
_REPEATS = 3


class Probe:
    """Reusable probe; buffers are allocated once so a probe is only work."""

    def __init__(self, clock=time.perf_counter) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((_GEMM_DIM, _GEMM_DIM), dtype=np.float32)
        self._b = rng.standard_normal((_GEMM_DIM, _GEMM_DIM), dtype=np.float32)
        self._c = np.empty_like(self._a)
        self._stream = np.ones(_STREAM_BYTES // 4, dtype=np.float32)
        self._clock = clock
        self.history: list[float] = []

    def _once(self) -> float:
        started = self._clock()
        for _ in range(_GEMM_REPEATS):
            np.matmul(self._a, self._b, out=self._c)
        np.multiply(self._stream, 1.0001, out=self._stream)
        table: dict[int, int] = {}
        for index in range(_DICT_ITERATIONS):
            table[index & 1023] = table.get(index & 1023, 0) + index
        return self._clock() - started

    def factor(self) -> float:
        """Host slowness now: median probe time over the reference time."""
        times = sorted(self._once() for _ in range(_REPEATS))
        value = times[len(times) // 2] / PROBE_REF_S
        self.history.append(value)
        return value


def block_factor(before: float, after: float) -> float:
    """The factor applied to samples taken between two probes."""
    return (before + after) / 2.0
