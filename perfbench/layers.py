"""The traced pass: per-layer numbers, one layer per ``repro`` module.

Two sources. ``measure_layers`` times calls into each module's public
functions directly (build, read, each pass, prepare, plan, compile, load,
frame encode, ...), a few repeats each, under spans. ``traced_metrics``
reads the spans and counters the traced blocks of the workload itself left
behind and splits the end-to-end median into stages, printing what the
stages do not account for. A layer the workload never enters reports 0.
"""

from __future__ import annotations

import io
import os
from collections.abc import Callable
from typing import Any

import numpy as np

from perfbench import loadgen, spec
from perfbench.spans import Recorder
from perfbench.stats import median, quantile

_REPEATS = 3
_STEADY_RUNS = 8


def _timed(recorder: Recorder, name: str, fn: Callable[[], Any],
           repeats: int = _REPEATS) -> tuple[Any, float]:
    """Run ``fn`` ``repeats`` times under spans; (last result, median ms)."""
    result = None
    times = []
    for _ in range(repeats):
        with recorder.span(name) as index:
            result = fn()
        times.append(recorder.spans[index].duration)
    return result, median(times) * 1e3


def _passes(recorder: Recorder, graph: Any, out: dict[str, float]) -> Any:
    from repro.passes import default_pipeline

    pipeline = default_pipeline()
    optimised, out["passes.pipeline_ms"] = _timed(
        recorder, "passes.pipeline", lambda: pipeline.run(graph))
    out["passes.nodes_before"] = len(graph.nodes)
    out["passes.nodes_after"] = len(optimised.nodes)
    for passed in pipeline.passes:
        out[f"passes.rewrites.{passed.name}"] = 0
    for name, count in pipeline.last_report.counts:
        out[f"passes.rewrites.{name}"] += count
    # Time each pass by walking the pipeline the way PassManager.run does.
    per_pass: dict[str, list[float]] = {p.name: [] for p in pipeline.passes}
    for _ in range(_REPEATS):
        working = graph.copy()
        spent = dict.fromkeys(per_pass, 0.0)
        for _iteration in range(pipeline.max_iterations):
            changed = 0
            for passed in pipeline.passes:
                with recorder.span(f"passes.apply.{passed.name}") as index:
                    count = passed.apply(working)
                spent[passed.name] += recorder.spans[index].duration
                changed += count
                if count:
                    working.validate()
            if not changed:
                break
        for name, seconds in spent.items():
            per_pass[name].append(seconds)
    for name, samples in per_pass.items():
        out[f"passes.apply_ms.{name}"] = median(samples) * 1e3
    return optimised


def _runtime(recorder: Recorder, optimised: Any, feed: dict,
             out: dict[str, float]) -> None:
    from repro import InferenceSession
    from repro.analysis.macs import count_graph
    from repro.backends import get_backend
    from repro.ir.shape_inference import infer_shapes
    from repro.runtime import plan_memory

    _, out["ir.copy_ms"] = _timed(recorder, "ir.copy", optimised.copy)
    _, out["ir.validate_ms"] = _timed(
        recorder, "ir.validate", optimised.validate)
    value_types, out["ir.infer_shapes_ms"] = _timed(
        recorder, "ir.infer_shapes", lambda: infer_shapes(optimised))
    schedule = optimised.toposort()
    _, out["runtime.plan_memory_ms"] = _timed(
        recorder, "runtime.plan_memory",
        lambda: plan_memory(optimised, value_types, schedule))

    backend = get_backend(spec.BACKEND)
    shapes = [[value_types[name][0] if name else () for name in node.inputs]
              for node in schedule]
    chains, out["backends.candidates_ms"] = _timed(
        recorder, "backends.candidates",
        lambda: [backend.candidates(node, node_shapes)
                 for node, node_shapes in zip(schedule, shapes)])
    out["backends.chain_len_mean"] = sum(map(len, chains)) / len(chains)

    prepare, first = [], []
    for _ in range(_REPEATS):
        with recorder.span("runtime.prepare") as index:
            session = InferenceSession(
                optimised, backend=spec.BACKEND, threads=1, optimize=False)
        prepare.append(recorder.spans[index].duration)
        with recorder.span("runtime.first_run") as index:
            session.run(feed)
        first.append(recorder.spans[index].duration)
    steady = []
    for _ in range(_STEADY_RUNS):
        with recorder.span("runtime.steady_run") as index:
            session.run(feed)
        steady.append(recorder.spans[index].duration)
    run_s = median(steady)
    out["runtime.prepare_ms"] = median(prepare) * 1e3
    out["runtime.run_ms_p50"] = run_s * 1e3
    out["runtime.first_run_extra_ms"] = (median(first) - run_s) * 1e3
    out["runtime.nodes"] = len(session.graph.nodes)
    plan = session.memory_plan
    out["runtime.arena_bytes"] = plan.arena_bytes
    out["runtime.peak_activation_bytes"] = plan.peak_bytes
    out["runtime.weight_bytes"] = plan.weight_bytes

    profile = session.profile(feed, repeats=_STEADY_RUNS, warmup=0)
    out.update(kernel_rows(
        [(layer.op_type, layer.impl, layer.median) for layer in profile.layers]))
    dispatch = run_s - profile.total_median
    out["runtime.dispatch_ms"] = dispatch * 1e3
    out["runtime.dispatch_share"] = dispatch / run_s
    out["runtime.fallbacks"] = len(
        session.robustness_report().fallback_events)
    cost = count_graph(optimised)
    out["kernels.macs"] = cost.total_macs
    out["kernels.gmacs_per_s"] = cost.total_macs / run_s / 1e9
    # Computed from tensor shapes (bytes every node writes), not measured.
    out["kernels.activation_bytes"] = cost.activation_bytes


def kernel_rows(rows: list[tuple[str, str, float]]) -> dict[str, float]:
    """Per-node ``(op, impl, seconds)`` folded into the named kernel rows;
    a row BENCHMARK.json does not name lands in ``kernels.ms.other``."""
    known = spec.metric_units(spec.load_benchmark(), "per_layer")
    out = {"kernels.ms.other": 0.0, "kernels.calls.other": 0}
    for op_type, impl, seconds in rows:
        key = f"{op_type}.{impl}"
        if f"kernels.ms.{key}" not in known:
            key = "other"
        out[f"kernels.ms.{key}"] = out.get(f"kernels.ms.{key}", 0.0) \
            + seconds * 1e3
        out[f"kernels.calls.{key}"] = out.get(f"kernels.calls.{key}", 0) + 1
    return out


def _engine(recorder: Recorder, graph: Any, scratch: str,
            out: dict[str, float]) -> None:
    from repro import InferenceSession
    from repro.engine import (
        compile_graph,
        load_engine,
        save_engine,
        serialize_engine,
    )

    engine, out["engine.compile_ms"] = _timed(
        recorder, "engine.compile",
        lambda: compile_graph(graph, backend=spec.BACKEND, threads=1))
    out["engine.bytes"] = len(serialize_engine(engine))
    path = os.path.join(scratch, "layers.oeng")
    save_engine(engine, path)
    _, out["engine.load_ms"] = _timed(
        recorder, "engine.load", lambda: load_engine(path))
    _, out["engine.from_engine_ms"] = _timed(
        recorder, "engine.from_engine",
        lambda: InferenceSession.from_engine(path))


def _protocol(recorder: Recorder, feed: dict, out: dict[str, float]) -> None:
    """Frame costs on the workload's batch tensor, through a BytesIO."""
    from repro.serve.protocol import (
        pack_arrays,
        read_frame,
        unpack_arrays,
        write_frame,
    )

    repeats = 50
    (meta, blob), pack_ms = _timed(
        recorder, "serve.protocol.pack", lambda: pack_arrays(feed), repeats)
    header = {"kind": "run", "seq": 1, "ids": ["q0"], "backend": spec.BACKEND,
              "deadline_ms": None, "arrays": meta}
    stream, write_ms = _timed(
        recorder, "serve.protocol.frame_write",
        lambda: _written(write_frame, header, blob), repeats)
    data = stream.getvalue()
    (_, payload), read_ms = _timed(
        recorder, "serve.protocol.frame_read",
        lambda: read_frame(io.BytesIO(data)), repeats)
    _, unpack_ms = _timed(
        recorder, "serve.protocol.unpack",
        lambda: unpack_arrays(meta, payload), repeats)
    out["serve.protocol.pack_us"] = pack_ms * 1e3
    out["serve.protocol.frame_write_us"] = write_ms * 1e3
    out["serve.protocol.frame_read_us"] = read_ms * 1e3
    out["serve.protocol.unpack_us"] = unpack_ms * 1e3


def _written(write_frame: Callable, header: dict, blob: bytes) -> io.BytesIO:
    stream = io.BytesIO()
    write_frame(stream, header, blob)
    return stream


def measure_layers(workload: spec.Workload, images: np.ndarray,
                   recorder: Recorder, scratch: str) -> dict[str, float]:
    """Direct timings of the layers ``workload`` passes through."""
    from repro import models

    model = spec.MODELS[workload.model]
    out: dict[str, float] = {}
    graph, out["models.build_ms"] = _timed(
        recorder, "models.build", lambda: models.build(
            model.name, batch=workload.batch, softmax=model.softmax))
    if workload.kind == "deploy-cold":
        from repro.onnx import load_model_bytes, save_model_bytes

        data, out["onnx.write_ms"] = _timed(
            recorder, "onnx.write", lambda: save_model_bytes(graph))
        out["onnx.bytes"] = len(data)
        _, out["onnx.read_ms"] = _timed(
            recorder, "onnx.read", lambda: load_model_bytes(data))
    optimised = _passes(recorder, graph, out)
    feed = {"input": np.concatenate(
        [images[:1], np.zeros_like(images[:1]).repeat(workload.batch - 1, 0)])}
    _runtime(recorder, optimised, feed, out)
    if workload.uses_engine:
        _engine(recorder, graph, scratch, out)
    if workload.worker_mode == "process":
        _protocol(recorder, feed, out)
    return out


# -- from the traced blocks ------------------------------------------------------


def _p50_ms(values: list[float]) -> float:
    return median(values) * 1e3


def _request_spans(driver: Any, blocks: list[dict],
                   recorder: Recorder) -> dict[str, list[float]]:
    """Turn each traced request into a span tree; return stage durations."""
    batch_of = {}
    for started, ended, ids in driver.batch_runs:
        for request_id in ids:
            batch_of[request_id] = (started, ended)
    stages: dict[str, list[float]] = {
        "loadgen.late": [], "serve.submit": [], "serve.wait": [],
        "serve.batch_run": [], "serve.resolve": []}
    for block in blocks:
        if not block["traced"]:
            continue
        for outcome in block["outcomes"]:
            run = batch_of.get(outcome.request_id)
            if outcome.kind != "completed" or run is None:
                continue
            rid = outcome.request_id
            parent = recorder.add(
                "loadgen.request", outcome.due, outcome.resolved, request=rid)
            edges = [outcome.due, outcome.sent, outcome.admitted,
                     run[0], run[1], outcome.resolved]
            for name, low, high in zip(stages, edges, edges[1:]):
                recorder.add(name, low, high, parent=parent, request=rid)
                stages[name].append(high - low)
    return stages


def traced_metrics(workload: spec.Workload, driver: Any, blocks: list[dict],
                   recorder: Recorder,
                   layer: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics the workload's own blocks produce, plus the stage
    table: rows, what they sum to, the end-to-end median, the residue."""
    out: dict[str, float] = {}
    traced = [s for b in blocks if b["traced"]
              for s in _completed_latencies(b)]
    plain = [s for b in blocks if not b["traced"]
             for s in _completed_latencies(b)]
    if not traced or not plain:
        raise RuntimeError("traced pass needs a traced and an untraced block")
    p50_ms = _p50_ms(traced)
    out["trace.overhead_share"] = median(traced) / median(plain) - 1.0

    everything = [o for b in blocks for o in b["outcomes"]]
    for name, value in loadgen.counts(everything).items():
        out[f"loadgen.{name}"] = value
    out["loadgen.lateness_ms_p90"] = quantile(
        [o.lateness_s for o in everything], 90.0) * 1e3

    if workload.serves:
        rows = _serve_metrics(workload, driver, blocks, recorder, out, layer)
    else:
        root = {"infer": "runtime.run", "deploy-cold": "deploy.cold_start",
                "deploy-warm": "deploy.warm_start"}[workload.kind]
        rows = _child_rows(recorder, root)
        if workload.kind == "infer":
            rows["runtime.dispatch_ms"] = \
                _p50_ms(recorder.durations(root)) - sum(rows.values())
    print_stage_table(workload.name, rows, p50_ms)
    return out


def _child_rows(recorder: Recorder, root: str) -> dict[str, float]:
    """Per ``root`` span, the time under each child name; medians over roots."""
    per_root: dict[int, dict[str, float]] = {
        index: {} for index, span in enumerate(recorder.spans)
        if span.name == root}
    for span in recorder.spans:
        bucket = per_root.get(span.parent)
        if bucket is not None:
            bucket[span.name] = bucket.get(span.name, 0.0) + span.duration
    names = {name for bucket in per_root.values() for name in bucket}
    return {f"{name}_ms": _p50_ms(
        [bucket.get(name, 0.0) for bucket in per_root.values()])
        for name in names}


def _completed_latencies(block: dict) -> list[float]:
    return [o.latency_s for o in block["outcomes"] if o.kind == "completed"]


def _serve_metrics(workload: spec.Workload, driver: Any, blocks: list[dict],
                   recorder: Recorder, out: dict[str, float],
                   layer: dict[str, float]) -> dict[str, float]:
    stages = _request_spans(driver, blocks, recorder)
    completed = [o for b in blocks for o in b["outcomes"]
                 if o.kind == "completed"]
    latency = [o.latency_s for o in completed]
    stats = driver.service.stats()
    out["serve.submit_us_p50"] = median(stages["serve.submit"]) * 1e6
    out["serve.batch_run_ms_p50"] = _p50_ms(
        [ended - started for started, ended, _ in driver.batch_runs])
    out["serve.overhead_ms_p50"] = \
        _p50_ms(latency) - out["serve.batch_run_ms_p50"]
    out["serve.batch_size_mean"] = stats.mean_batch_size
    out["serve.batches"] = stats.batches
    out["serve.pad_share"] = 1.0 - stats.batched_requests / (
        stats.batches * workload.batch) if stats.batches else 0.0
    out["serve.ewma_batch_ms"] = stats.ewma_batch_ms
    out["serve.shed_share"] = stats.shed_rate
    out["serve.late_share"] = (
        stats.late_completions / stats.completed if stats.completed else 0.0)
    sent = sum(len(b["outcomes"]) for b in blocks)
    within = sum(o.latency_s * 1e3 <= spec.SLO_MS for o in completed)
    out["serve.slo_miss_share"] = 1.0 - within / sent
    if workload.worker_mode == "process":
        supervisor = driver.pool.supervisor.stats()
        out["serve.spawn_s"] = driver.spawn_s
        out["serve.supervisor.restarts"] = supervisor.restarts
        out["serve.supervisor.deaths"] = sum(supervisor.deaths.values())
        # WorkerSupervisor.run (frames, pipes, hand-off) over the same
        # batch run made in-process.
        out["serve.ipc_overhead_ms_p50"] = \
            out["serve.batch_run_ms_p50"] - layer["runtime.run_ms_p50"]
    return {f"{name}_ms": _p50_ms(samples)
            for name, samples in stages.items()}


def print_stage_table(name: str, rows: dict[str, float], p50_ms: float) -> None:
    """The per-layer table: stage medians, their sum, the traced end-to-end
    median, and the residue the stages do not explain (medians do not add)."""
    print(f"  stages of {name} (traced pass, host ms):")
    for row, value in sorted(rows.items(), key=lambda item: -item[1]):
        print(f"    {row:<40s} {value:10.3f}")
    total = sum(rows.values())
    print(f"    {'sum of rows':<40s} {total:10.3f}")
    print(f"    {'end-to-end p50':<40s} {p50_ms:10.3f}")
    print(f"    {'residue':<40s} {p50_ms - total:10.3f}")
