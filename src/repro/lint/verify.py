"""Ahead-of-execution verification of graphs and compiled engines (ORV1xx).

``parse_engine`` already rejects structural corruption (truncation, bad
checksums, plans that name values the graph lacks). This module checks
the *semantic* invariants parsing cannot see without doing real work:

* the schedule is actually topological (parsing only checks it is a
  permutation of the node set) — ORV112;
* re-running shape inference over the embedded graph reproduces the
  recorded ``value_types`` — ORV104;
* every node's fallback chain is non-empty, starts with the recorded
  winner, and (warning) bottoms out at the reference kernel —
  ORV107/ORV113;
* the engine's host fingerprint matches this machine (warning; a stale
  engine loads, it just falls back to cold prepare) — ORV110;
* every quantized node's scales are positive and finite and its zero
  points sit inside the quantized dtype's range — ORV114 — and an
  engine's frozen quantization header agrees with the graph it ships —
  ORV115.

The memory plan has no rule: engines do not store it, and the plan the
executor derives from an ORV112-clean schedule is correct by
construction.

All checks are static: no kernel runs, no tensor is allocated. Findings
use line 0 — artifacts have sections, not lines — with the artifact path
or graph name as the location.
"""

from __future__ import annotations

import os

import numpy as np

from repro.engine.fingerprint import HOST_KEYS, host_fingerprint
from repro.engine.format import Engine, load_engine
from repro.errors import (
    EngineError,
    GraphError,
    KernelError,
    OnnxError,
    ShapeInferenceError,
    UnsupportedOpError,
)
from repro.ir.graph import Graph
from repro.ir.shape_inference import infer_shapes
from repro.lint.findings import Finding, Report

#: The kernel name every fallback chain should bottom out at.
REFERENCE_IMPL = "reference"


def _f(rule: str, label: str, message: str) -> Finding:
    return Finding(rule, label, 0, message)


# -- graph checks ----------------------------------------------------------------


def verify_graph(graph: Graph, label: str | None = None) -> list[Finding]:
    """Statically validate one IR graph; returns structured findings."""
    label = label or f"graph:{graph.name}"
    findings: list[Finding] = []

    produced: dict[str, str] = {}
    pre_bound = set(graph.input_names) | set(graph.initializers)
    for node in graph.nodes:
        for out in node.outputs:
            if out in produced:
                findings.append(_f(
                    "ORV103", label,
                    f"value {out!r} is produced by both {produced[out]!r} "
                    f"and {node.name!r}"))
            elif out in pre_bound:
                findings.append(_f(
                    "ORV103", label,
                    f"node {node.name!r} produces {out!r}, which is already "
                    f"a graph input or initializer"))
            else:
                produced[out] = node.name

    known = pre_bound | set(produced)
    for node in graph.nodes:
        for inp in node.present_inputs:
            if inp not in known:
                findings.append(_f(
                    "ORV101", label,
                    f"node {node.name!r} reads {inp!r}, which no node, "
                    f"input, or initializer produces"))
    for name in graph.output_names:
        if name not in known:
            findings.append(_f(
                "ORV102", label,
                f"graph output {name!r} is never produced"))

    try:
        graph.toposort()
    except GraphError as exc:
        findings.append(_f("ORV111", label, str(exc)))

    # Shape inference only means anything over a structurally sound graph.
    if not findings:
        try:
            infer_shapes(graph)
        except (ShapeInferenceError, UnsupportedOpError, GraphError) as exc:
            findings.append(_f(
                "ORV104", label, f"shape inference fails: {exc}"))
    findings.extend(_check_quant_params(graph, label))
    return findings


#: (scale input index, zero-point input index) pairs per quantized op.
_QUANT_PARAM_INPUTS = {
    "QuantizeLinear": ((1, 2),),
    "DequantizeLinear": ((1, 2),),
    "QLinearConv": ((1, 2), (4, 5), (6, 7)),
}


def _check_quant_params(graph: Graph, label: str) -> list[Finding]:
    """ORV114: scales positive and finite, zero points in-range.

    Only initializer-backed parameters are checked (dynamic scales cannot
    be validated statically); that covers every graph the quantizer emits.
    """
    findings: list[Finding] = []
    for node in graph.nodes:
        pairs = _QUANT_PARAM_INPUTS.get(node.op_type)
        if pairs is None:
            continue
        for scale_index, zp_index in pairs:
            if scale_index < len(node.inputs):
                scale = graph.initializers.get(node.inputs[scale_index])
                if scale is not None:
                    values = np.asarray(scale, dtype=np.float64).reshape(-1)
                    if values.size and (not np.all(np.isfinite(values))
                                        or np.any(values <= 0.0)):
                        findings.append(_f(
                            "ORV114", label,
                            f"node {node.name!r}: scale "
                            f"{node.inputs[scale_index]!r} must be positive "
                            f"and finite, got "
                            f"{values[np.argmin(values)]!r}"))
            if zp_index < len(node.inputs):
                zero_point = graph.initializers.get(node.inputs[zp_index])
                if zero_point is None:
                    continue
                if not np.issubdtype(zero_point.dtype, np.integer):
                    findings.append(_f(
                        "ORV114", label,
                        f"node {node.name!r}: zero point "
                        f"{node.inputs[zp_index]!r} has non-integer dtype "
                        f"{zero_point.dtype}"))
                    continue
                flat = np.asarray(zero_point, dtype=np.int64).reshape(-1)
                # int8 and uint8 are the two storage types the quantizer
                # emits; anything outside their union cannot round-trip.
                if flat.size and (flat.min() < -128 or flat.max() > 255):
                    findings.append(_f(
                        "ORV114", label,
                        f"node {node.name!r}: zero point "
                        f"{node.inputs[zp_index]!r} value "
                        f"{int(flat[np.argmax(np.abs(flat))])} is outside "
                        f"the int8/uint8 range"))
    return findings


# -- engine checks ---------------------------------------------------------------


def _check_plans(engine: Engine, label: str) -> list[Finding]:
    """Schedule coverage/order and per-node kernel chains."""
    findings: list[Finding] = []
    node_names = {node.name for node in engine.graph.nodes}

    covered = True
    for what, names in (("schedule", set(engine.schedule)),
                        ("kernel_plan", set(engine.kernel_plan)),
                        ("fallback_plan", set(engine.fallback_plan))):
        if names != node_names:
            covered = False
            missing = sorted(node_names - names)[:3]
            extra = sorted(names - node_names)[:3]
            findings.append(_f(
                "ORV108", label,
                f"{what} does not cover exactly the graph's nodes "
                f"(missing {missing}, extra {extra})"))

    if covered and len(engine.schedule) == len(set(engine.schedule)):
        position = {name: i for i, name in enumerate(engine.schedule)}
        try:
            producers = engine.graph.producers()
        except GraphError:
            producers = {}  # duplicate producers already reported (ORV103)
        for node in engine.graph.nodes:
            for inp in node.present_inputs:
                producer = producers.get(inp)
                if (producer is not None and producer is not node
                        and position[producer.name] > position[node.name]):
                    findings.append(_f(
                        "ORV112", label,
                        f"schedule runs {node.name!r} (step "
                        f"{position[node.name]}) before its producer "
                        f"{producer.name!r} (step {position[producer.name]})"))

    from repro.kernels.registry import REGISTRY
    for node in sorted(engine.graph.nodes, key=lambda n: n.name):
        chain = engine.fallback_plan.get(node.name)
        winner = engine.kernel_plan.get(node.name)
        if not chain:
            findings.append(_f(
                "ORV107", label,
                f"node {node.name!r} has no kernel fallback chain"))
            continue
        if winner is not None and chain[0] != winner:
            findings.append(_f(
                "ORV107", label,
                f"node {node.name!r}: fallback chain starts with "
                f"{chain[0]!r}, not the recorded winner {winner!r}"))
        # Thin-insurance warning: only when a reference kernel exists for
        # this op type (many ops have a single canonical implementation).
        if REFERENCE_IMPL not in chain:
            try:
                REGISTRY.get(node.op_type, REFERENCE_IMPL)
            except KernelError:
                continue
            findings.append(_f(
                "ORV113", label,
                f"node {node.name!r} ({node.op_type}): a {REFERENCE_IMPL!r} "
                f"kernel is registered but absent from the fallback chain"))
    return findings


def _check_value_types(engine: Engine, label: str) -> list[Finding]:
    """Re-run shape inference and diff against the recorded types."""
    try:
        fresh = infer_shapes(engine.graph)
    except (ShapeInferenceError, UnsupportedOpError, GraphError) as exc:
        return [_f("ORV104", label,
                   f"shape inference fails over the embedded graph: {exc}")]
    findings: list[Finding] = []
    for name in sorted(engine.value_types):
        recorded = engine.value_types[name]
        actual = fresh.get(name)
        if actual is not None and actual != recorded:
            findings.append(_f(
                "ORV104", label,
                f"value {name!r}: engine records shape "
                f"{list(recorded[0])} {recorded[1].value}, inference gives "
                f"{list(actual[0])} {actual[1].value}"))
    return findings


def _check_fingerprint(engine: Engine, label: str) -> list[Finding]:
    host = host_fingerprint()
    for key in HOST_KEYS:
        recorded = engine.fingerprint.get(key)
        if recorded != host[key]:
            return [_f(
                "ORV110", label,
                f"engine was built with {key}={recorded!r}, this host has "
                f"{host[key]!r}; loads here fall back to cold prepare")]
    return []


def _check_quantization_header(engine: Engine, label: str) -> list[Finding]:
    """ORV115: the frozen quantization report matches the shipped graph."""
    quantized_nodes = sum(
        1 for node in engine.graph.nodes if node.op_type == "QLinearConv")
    report = engine.quantization
    if report is None:
        if quantized_nodes:
            return [_f(
                "ORV115", label,
                f"graph carries {quantized_nodes} QLinearConv nodes but the "
                f"engine has no quantization header")]
        return []
    converted = report.get("converted_convs")
    if converted is None:
        return [_f(
            "ORV115", label,
            "quantization header lacks the 'converted_convs' count")]
    if converted != quantized_nodes:
        return [_f(
            "ORV115", label,
            f"quantization header says {converted} converted convs, the "
            f"graph carries {quantized_nodes} QLinearConv nodes")]
    return []


def verify_engine(engine: Engine, label: str | None = None) -> list[Finding]:
    """Statically validate a parsed engine (graph + all frozen plans)."""
    label = label or f"engine:{engine.graph.name}"
    findings = verify_graph(engine.graph, label)
    findings.extend(_check_plans(engine, label))
    if not any(f.rule == "ORV104" for f in findings):
        findings.extend(_check_value_types(engine, label))
    findings.extend(_check_fingerprint(engine, label))
    findings.extend(_check_quantization_header(engine, label))
    return findings


# -- CLI-facing resolution -------------------------------------------------------


def verify_target(target: str, seed: int = 0) -> Report:
    """Verify a zoo model name, an ``.onnx`` model, or an ``.oeng`` engine.

    Unreadable artifacts become ORV100 findings rather than exceptions —
    a corrupt file is a verification failure, not a crash.
    """
    report = Report()
    if target.endswith(".oeng"):
        try:
            engine = load_engine(target)
        except EngineError as exc:
            report.add(_f("ORV100", target, f"unreadable engine: {exc}"))
            return report
        report.extend(verify_engine(engine, target))
        return report

    if target.endswith(".onnx") or os.path.exists(target):
        from repro.onnx import load_model
        try:
            graph = load_model(target)
        except (OnnxError, UnsupportedOpError, OSError) as exc:
            report.add(_f("ORV100", target, f"unreadable model: {exc}"))
            return report
        report.extend(verify_graph(graph, target))
        return report

    from repro.errors import ModelZooError
    from repro.models import zoo
    try:
        graph = zoo.build(target, seed=seed)
    except ModelZooError as exc:
        report.add(_f("ORV100", target, str(exc)))
        return report
    report.extend(verify_graph(graph, target))
    return report
