"""One round of one workload, run in a process of its own.

``python -m perfbench.workloads --workload W --seed N --seconds S --trace T
--out FILE`` sets the workload up (several times, timed), runs blocks of
timed operations separated by host-speed probes for ``S`` seconds, tears
down, reads its own peak memory, and only then checks every output against
the oracle. What it writes is raw material — per-sample times with their
host-speed factors — which ``perfbench.run`` pools and summarises.

Every operation goes through ``perfbench.loadgen``, single-caller loops
included, so all eight workloads share one definition of due, sent,
resolved and failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import sys
import time
import zlib
from typing import Any

import numpy as np

from perfbench import loadgen, oracle, spec
from perfbench.probe import Probe, block_factor
from perfbench.spans import Recorder
from perfbench.stats import median, spread

_WARMUP_OPS = 3


def make_images(model: spec.Model, seed: int) -> np.ndarray:
    """The seed's image pool for ``model`` (the program sees only these)."""
    rng = np.random.default_rng([seed, zlib.crc32(model.name.encode())])
    shape = (model.pool, 3, model.image_size, model.image_size)
    return (rng.standard_normal(shape) * model.scale).astype(np.float32)


@dataclasses.dataclass
class Done:
    """Terminal response of a single-caller operation."""

    output: Any


class Driver:
    """Set-up, one timed operation, and tear-down of a workload.

    While ``tracing`` is set (traced blocks of a traced run), ``submit`` runs
    the traced form of the operation: the same work, reached through calls
    the benchmark can put spans around.
    """

    def __init__(self, workload: spec.Workload, images: np.ndarray,
                 scratch: str, recorder: Recorder | None = None) -> None:
        self.workload = workload
        self.model = spec.MODELS[workload.model]
        self.images = images
        self.scratch = scratch
        self.recorder = recorder
        self.tracing = False
        self.warmups: list[loadgen.Outcome] = []

    # -- overridden per kind ---------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def submit(self, outcome: loadgen.Outcome) -> Any:
        raise NotImplementedError

    # -- shared ----------------------------------------------------------------

    def build_graph(self):
        from repro import models

        return models.build(self.model.name, batch=self.workload.batch,
                            softmax=self.model.softmax)

    def feed(self, outcome: loadgen.Outcome) -> dict[str, np.ndarray]:
        return {"input": self.images[outcome.image:outcome.image + 1]}

    def warm_up(self) -> None:
        """The first operations pay one-off costs; run them before timing."""
        self.warmups = loadgen.run_closed_loop(
            self.submit, [0] * _WARMUP_OPS, window=1, first_index=-_WARMUP_OPS)

    def block(self, rng: np.random.Generator, count: int,
              first_index: int) -> list[loadgen.Outcome]:
        workload = self.workload
        if workload.loop == "open":
            schedule = loadgen.jittered_schedule(
                rng, workload.rate, count, workload.jitter, self.model.pool)
            return loadgen.run_open_loop(
                self.submit, schedule, first_index=first_index)
        picks = [int(pick) for pick in rng.integers(self.model.pool, size=count)]
        return loadgen.run_closed_loop(
            self.submit, picks, workload.window, first_index=first_index)


class InferDriver(Driver):
    """Closed loop, one caller: ``session.run`` on a prepared session."""

    def setup(self) -> None:
        from repro import InferenceSession

        self.session = InferenceSession(
            self.build_graph(), backend=spec.BACKEND, threads=1)
        self.warm_up()

    def teardown(self) -> None:
        self.session = None

    def submit(self, outcome: loadgen.Outcome) -> Done:
        if not self.tracing:
            return Done(self.session.run(self.feed(outcome))["output"][0])
        # session.profile is the public per-node timer; it returns no
        # output, so traced inference samples are timed but not checked.
        recorder = self.recorder
        with recorder.span("runtime.run", request=outcome.request_id) as run:
            started = recorder.clock()
            profile = self.session.profile(
                self.feed(outcome), repeats=1, warmup=0)
        cursor = started
        for layer in profile.layers:    # starts synthesised back to back
            recorder.add(f"kernels.{layer.op_type}.{layer.impl}", cursor,
                         cursor + layer.times[0], parent=run,
                         request=outcome.request_id)
            cursor += layer.times[0]
        return Done(None)


class DeployColdDriver(Driver):
    """ONNX bytes -> load_model_bytes -> InferenceSession -> first output."""

    def setup(self) -> None:
        from repro.onnx import save_model_bytes

        self.onnx_bytes = save_model_bytes(self.build_graph())
        self.warm_up()

    def submit(self, outcome: loadgen.Outcome) -> Done:
        from repro import InferenceSession
        from repro.onnx import load_model_bytes

        feed = self.feed(outcome)
        if not self.tracing:
            session = InferenceSession(
                load_model_bytes(self.onnx_bytes), backend=spec.BACKEND, threads=1)
            return Done(session.run(feed)["output"][0])
        from repro.passes import default_pipeline

        span, rid = self.recorder.span, outcome.request_id
        with span("deploy.cold_start", request=rid):
            with span("onnx.read", request=rid):
                graph = load_model_bytes(self.onnx_bytes)
            with span("passes.pipeline", request=rid):
                graph = default_pipeline().run(graph)
            with span("runtime.prepare", request=rid):
                session = InferenceSession(
                    graph, backend=spec.BACKEND, threads=1, optimize=False)
            with span("runtime.first_run", request=rid):
                return Done(session.run(feed)["output"][0])


class DeployWarmDriver(Driver):
    """Engine file -> InferenceSession.from_engine -> first output."""

    def setup(self) -> None:
        from repro.engine import compile_to_file

        self.engine_path = os.path.join(self.scratch, "model.oeng")
        compile_to_file(self.build_graph(), self.engine_path,
                        backend=spec.BACKEND, threads=1)
        self.warm_up()

    def submit(self, outcome: loadgen.Outcome) -> Done:
        from repro import InferenceSession

        feed = self.feed(outcome)
        if not self.tracing:
            session = InferenceSession.from_engine(self.engine_path)
            return Done(session.run(feed)["output"][0])
        from repro.engine import load_engine

        span, rid = self.recorder.span, outcome.request_id
        with span("deploy.warm_start", request=rid):
            with span("engine.load", request=rid):
                engine = load_engine(self.engine_path)
            with span("engine.from_engine", request=rid):
                session = InferenceSession.from_engine(engine)
            with span("runtime.first_run", request=rid):
                return Done(session.run(feed)["output"][0])


class _TracedSession:
    """A pool session that puts a span around each batch run when tracing."""

    accepts_request_ids = True

    def __init__(self, inner: Any, driver: "ServeDriver") -> None:
        self._inner = inner
        self._driver = driver
        self._with_ids = getattr(inner, "accepts_request_ids", False)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def run(self, feeds: dict, deadline_ms: float | None = None,
            request_ids: tuple[str, ...] = ()) -> dict:
        kwargs = {"request_ids": request_ids} if self._with_ids else {}
        if not self._driver.tracing:
            return self._inner.run(feeds, deadline_ms=deadline_ms, **kwargs)
        clock = self._driver.recorder.clock
        started = clock()
        try:
            return self._inner.run(feeds, deadline_ms=deadline_ms, **kwargs)
        finally:
            self._driver.batch_runs.append((started, clock(), request_ids))


class _TracedPool:
    """The pool the service sees in a traced run: same pool, traced sessions."""

    def __init__(self, inner: Any, driver: "ServeDriver") -> None:
        self._inner = inner
        self._sessions = {
            (backend, worker): _TracedSession(
                inner.session(backend, worker), driver)
            for backend in inner.backends for worker in range(inner.workers)}

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def session(self, backend: str, worker: int) -> _TracedSession:
        return self._sessions[(backend, worker)]


class ServeDriver(Driver):
    """Requests submitted to an ``InferenceService`` over a one-worker pool."""

    def setup(self) -> None:
        from repro.serve import (
            InferenceService,
            ProcessWorkerPool,
            SessionPool,
            WorkerSupervisor,
        )

        workload = self.workload
        knobs = dict(backends=(spec.BACKEND,), workers=1, batch=workload.batch,
                     threads=1)
        started = time.perf_counter()
        if workload.worker_mode == "process":
            self.pool = ProcessWorkerPool(WorkerSupervisor(
                workload.model, **knobs,
                heartbeat_timeout_s=spec.HEARTBEAT_TIMEOUT_S))
        else:
            self.pool = SessionPool(workload.model, **knobs)
        self.spawn_s = time.perf_counter() - started
        self.batch_runs: list[tuple[float, float, tuple[str, ...]]] = []
        served = (self.pool if self.recorder is None
                  else _TracedPool(self.pool, self))
        self.service = InferenceService(pool=served)
        self.warm_up()

    def teardown(self) -> None:
        service, self.service = getattr(self, "service", None), None
        if service is None:
            return
        service.close()
        close_pool = getattr(self.pool, "close", None)
        if close_pool is not None:
            close_pool()    # process mode: shut the supervisor's worker down

    def submit(self, outcome: loadgen.Outcome) -> Any:
        return self.service.submit(
            self.images[outcome.image],
            deadline_ms=self.workload.deadline_ms,
            request_id=outcome.request_id)


DRIVERS = {
    "infer": InferDriver,
    "deploy-cold": DeployColdDriver,
    "deploy-warm": DeployWarmDriver,
    "serve": ServeDriver,
}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child
    (the process-mode worker), in MiB. Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _blas() -> str:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name', 'blas')} {info.get('version', '')}".strip()


def _block_count(workload: spec.Workload, ops_per_s: float) -> int:
    if workload.loop == "open":
        return max(2, round(workload.rate * spec.OPEN_BLOCK_S))
    count = max(2, round(ops_per_s * spec.BLOCK_S))
    # Whole windows only, so a windowed block ends with full batches.
    return max(workload.window, count - count % workload.window)


def _time_setups(driver: Driver, probe: Probe,
                 repeats: int) -> list[tuple[float, float]]:
    """Set the workload up ``repeats`` times; ``(seconds, factor)`` each.
    The last set-up is left standing for the timed blocks."""
    samples = []
    for repeat in range(repeats):
        if repeat:
            driver.teardown()
            gc.collect()
        before = probe.factor()
        started = time.perf_counter()
        driver.setup()
        elapsed = time.perf_counter() - started
        samples.append((elapsed, block_factor(before, probe.factor())))
    return samples


def _timed_blocks(driver: Driver, probe: Probe, rng: np.random.Generator,
                  seconds: float, trace: bool) -> list[dict]:
    """Blocks of operations with a probe on either side, for ``seconds`` of
    block time. A traced run alternates untraced and traced blocks."""
    workload = driver.workload
    warm = [o.resolved - o.sent for o in driver.warmups
            if o.kind == "completed"]
    if not warm:
        raise RuntimeError(
            f"warm-up failed: {[o.detail for o in driver.warmups]}")
    ops_per_s = workload.window / min(warm)
    blocks: list[dict] = []
    measured, sent = 0.0, 0
    before = probe.factor()
    while measured < seconds or (trace and len(blocks) < 2):
        driver.tracing = trace and len(blocks) % 2 == 1
        started = time.perf_counter()
        outcomes = driver.block(
            rng, _block_count(workload, ops_per_s), first_index=sent)
        wall = time.perf_counter() - started
        after = probe.factor()
        blocks.append({"outcomes": outcomes, "wall": wall,
                       "factor": block_factor(before, after),
                       "traced": driver.tracing})
        before = after
        measured += wall
        sent += len(outcomes)
        ops_per_s = len(outcomes) / wall
    driver.tracing = False
    return blocks


def _verify(model: spec.Model, seed: int, images: np.ndarray,
            outcomes: list[loadgen.Outcome]) -> None:
    """Turn every completed outcome the oracle disagrees with into a failure."""
    expected = oracle.expected_outputs(
        model.name, model.softmax, images,
        os.path.join(spec.OUT_DIR, f"oracle-{model.name}-{seed}.npz"))
    for outcome in outcomes:
        if outcome.kind == "completed" and outcome.output is not None \
                and not oracle.matches(outcome.output,
                                       expected[outcome.image]):
            outcome.kind = "failed"
            outcome.detail = "oracle mismatch"


def run_round(workload: spec.Workload, seed: int, seconds: float,
              trace: bool, setups: int) -> dict:
    """Everything one round measures, as a JSON-ready document."""
    model = spec.MODELS[workload.model]
    images = make_images(model, seed)
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    scratch = os.path.join(spec.OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    recorder = Recorder() if trace else None
    probe = Probe()
    for _ in range(3):      # the first probes pay page faults and BLAS init
        probe.factor()
    probe.history.clear()
    layer: dict[str, float] = {}
    driver = DRIVERS[workload.kind](workload, images, scratch, recorder)
    try:
        if trace:
            from perfbench import layers

            # The traced pass is the shorter one: its numbers are per layer,
            # and measure_layers spends part of the run.
            layer = layers.measure_layers(workload, images, recorder, scratch)
            setups, seconds = 1, seconds / 2.0
        setup_samples = _time_setups(driver, probe, setups)
        blocks = _timed_blocks(driver, probe, rng, seconds, trace)
        if trace:
            layer.update(layers.traced_metrics(
                workload, driver, blocks, recorder, layer))
    finally:
        driver.teardown()   # a worker process must not outlive the round
        shutil.rmtree(scratch, ignore_errors=True)
    rss = peak_rss_mb()     # read before the oracle allocates float64 tensors

    started = time.perf_counter()
    outcomes = driver.warmups + [o for b in blocks for o in b["outcomes"]]
    _verify(model, seed, images, outcomes)
    check_s = time.perf_counter() - started
    document = {
        "workload": workload.name,
        "setup": setup_samples,
        "blocks": [{
            "wall": block["wall"], "factor": block["factor"],
            "traced": block["traced"],
            "latency_s": [o.latency_s for o in block["outcomes"]
                          if o.kind == "completed"],
            "lateness_s": [o.lateness_s for o in block["outcomes"]],
        } for block in blocks],
        "attempted": len(outcomes),
        "failed": sum(o.kind != "completed" for o in outcomes),
        "failures": sorted(
            {o.detail for o in outcomes if o.kind != "completed"})[:5],
        "peak_rss_mb": rss,
        "probe_factors": probe.history,
        "host": f"numpy {np.__version__}, {_blas()}",
    }
    if trace:
        layer["oracle.check_s"] = check_s
        layer["host.speed_factor_p50"] = median(probe.history)
        layer["host.speed_factor_spread"] = spread(probe.history)
        recorder.dump(
            os.path.join(spec.OUT_DIR, f"trace-{workload.name}.json"),
            workload=workload.name, seed=seed,
            note="kernels.* spans carry durations measured by "
                 "session.profile; their starts are synthesised back to "
                 "back inside runtime.run")
        document["layer"] = layer
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setups", type=int, default=spec.SETUP_REPEATS)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    document = run_round(spec.WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace), args.setups)
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(document, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
