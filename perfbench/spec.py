"""What the benchmark runs: models, workloads, and the metric names.

``BENCHMARK.json`` at the repository root is the source of truth for the
workload and metric *names*; this module adds what a name means.
"""

from __future__ import annotations

import dataclasses
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: The workloads pin every kernel library to one thread (the paper's
#: single-thread setting); worker processes inherit the pins.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


#: Every workload runs the paper's own backend.
BACKEND = "orpheus"


@dataclasses.dataclass(frozen=True)
class Model:
    """A zoo model as the benchmark feeds it.

    ``pool`` images are generated per seed; it shrinks with the cost of
    one float64 oracle pass so verification stays a small share of a run.
    ``scale``/``softmax`` keep the checked output informative: with random
    weights wrn-40-2's and resnet50's softmax saturates to the same one-hot
    vector for every input, which would let a wrong kernel pass. wrn-40-2
    is served by name (process workers rebuild it from the name), so its
    inputs are scaled down until the softmax is not saturated; resnet50
    saturates at any input scale, so its graph is built without the
    softmax head and logits are compared.
    """

    name: str
    image_size: int
    pool: int
    scale: float = 1.0
    softmax: bool = True


MODELS = {
    "wrn-40-2": Model("wrn-40-2", 32, pool=8, scale=0.1),
    "mobilenet-v1": Model("mobilenet-v1", 224, pool=4),
    "resnet50": Model("resnet50", 224, pool=2, softmax=False),
}


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload: which model, which driver, how the load is shaped."""

    name: str
    kind: str               # "infer" | "deploy-cold" | "deploy-warm" | "serve"
    model: str
    batch: int = 1          # batch the sessions are prepared at
    loop: str = "closed"    # "closed" | "open"
    window: int = 1         # closed loop: requests kept outstanding
    rate: float = 0.0       # open loop: arrivals per second
    jitter: float = 0.4     # open loop: share of a period an arrival may move
    worker_mode: str = "thread"
    deadline_ms: float | None = None

    @property
    def uses_engine(self) -> bool:
        """Does set-up or the operation compile/load an engine?"""
        return self.kind in ("deploy-warm", "serve")

    @property
    def serves(self) -> bool:
        return self.kind == "serve"


# The deadline keeps the executor's watchdog path in the measurement; it and
# the process worker's heartbeat timeout are set far above any latency the
# workloads produce, so that a stall of the shared host (seconds long ones
# were seen) cannot turn into a failed request.
_SERVE = dict(kind="serve", model="wrn-40-2", batch=4, deadline_ms=5000.0)
HEARTBEAT_TIMEOUT_S = 10.0

WORKLOADS = {w.name: w for w in (
    Workload("infer-resnet50", "infer", "resnet50"),
    Workload("infer-mobilenet", "infer", "mobilenet-v1"),
    Workload("infer-wrn", "infer", "wrn-40-2"),
    Workload("deploy-cold-mobilenet", "deploy-cold", "mobilenet-v1"),
    Workload("deploy-warm-mobilenet", "deploy-warm", "mobilenet-v1"),
    Workload("serve-sparse", loop="open", rate=8.0, **_SERVE),
    Workload("serve-saturate", loop="closed", window=8, **_SERVE),
    Workload("serve-proc-sparse", loop="open", rate=8.0,
             worker_mode="process", **_SERVE),
)}

#: Requests slower than this from their due time miss the serving SLO.
SLO_MS = 150.0
#: A block of timed samples between two host-speed probes lasts about this:
#: the host changes speed every few seconds, and a block it changes inside
#: cannot be calibrated well, so blocks are short. An open-loop block is
#: longer because each block's first request meets an idle service.
BLOCK_S = 0.5
OPEN_BLOCK_S = 1.0
#: Set-up is repeated this often per run; ``setup_s`` is the median.
SETUP_REPEATS = 4


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as stream:
        return json.load(stream)


def metric_units(document: dict, section: str) -> dict[str, str]:
    """``{name: unit}`` for ``end_to_end`` or ``per_layer``."""
    return {entry["name"]: entry["unit"] for entry in document[section]}
