"""Verifier battery: clean artifacts verify clean; every corruption class
produces its structured finding instead of a crash."""

import dataclasses

import pytest

from repro.engine.compiler import compile_graph
from repro.engine.format import save_engine, serialize_engine
from repro.ir.graph import Graph, ValueInfo
from repro.ir.node import Node
from repro.lint import verify_engine, verify_graph, verify_target
from repro.models import zoo
from tests.conftest import tiny_classifier


def rules(findings) -> set[str]:
    return {f.rule for f in findings}


@pytest.fixture(scope="module")
def engine():
    return compile_graph(tiny_classifier())


# -- clean artifacts -----------------------------------------------------------


def test_zoo_model_verifies_clean():
    report = verify_target("wrn-40-2")
    assert report.exit_code() == 0 and len(report) == 0


def test_compiled_engine_verifies_clean(engine, tmp_path):
    assert verify_engine(engine) == []
    path = tmp_path / "tiny.oeng"
    save_engine(engine, path)
    report = verify_target(str(path))
    assert report.exit_code() == 0 and len(report) == 0


# -- graph-level corruption ----------------------------------------------------


def test_dangling_input_flagged():
    graph = Graph(
        "bad", inputs=[], outputs=[ValueInfo("y", (1, 4))],
        nodes=[Node("Relu", ["missing"], ["y"], name="relu")])
    assert rules(verify_graph(graph)) == {"ORV101"}


def test_unproduced_output_flagged():
    graph = Graph(
        "bad", inputs=[ValueInfo("x", (1, 4))],
        outputs=[ValueInfo("ghost", (1, 4))],
        nodes=[Node("Relu", ["x"], ["y"], name="relu")])
    assert rules(verify_graph(graph)) == {"ORV102"}


def test_duplicate_producer_flagged():
    graph = Graph(
        "bad", inputs=[ValueInfo("x", (1, 4))],
        outputs=[ValueInfo("y", (1, 4))],
        nodes=[Node("Relu", ["x"], ["y"], name="a"),
               Node("Relu", ["x"], ["y"], name="b")])
    assert "ORV103" in rules(verify_graph(graph))


def test_cycle_flagged():
    graph = Graph(
        "bad", inputs=[], outputs=[ValueInfo("a", (1, 4))],
        nodes=[Node("Relu", ["b"], ["a"], name="n1"),
               Node("Relu", ["a"], ["b"], name="n2")])
    assert "ORV111" in rules(verify_graph(graph))


def test_shape_inconsistency_flagged():
    # Gemm with incompatible inner dimensions: structurally sound, but
    # shape inference must reject it.
    import numpy as np
    graph = Graph(
        "bad", inputs=[ValueInfo("x", (1, 4))],
        outputs=[ValueInfo("y", (1, 2))],
        nodes=[Node("Gemm", ["x", "w"], ["y"],
                    {"alpha": 1.0, "beta": 1.0, "transB": 1}, name="gemm")],
        initializers={"w": np.zeros((2, 5), dtype=np.float32)})
    assert rules(verify_graph(graph)) == {"ORV104"}


# -- engine-level corruption (in memory and through the file format) ----------


def test_unreadable_engine_file(engine, tmp_path):
    path = tmp_path / "corrupt.oeng"
    data = bytearray(serialize_engine(engine))
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    report = verify_target(str(path))
    assert rules(report) == {"ORV100"} and report.exit_code() == 1


def test_truncated_engine_file(engine, tmp_path):
    path = tmp_path / "short.oeng"
    path.write_bytes(serialize_engine(engine)[:64])
    assert rules(verify_target(str(path))) == {"ORV100"}


def test_schedule_order_violation_survives_roundtrip(engine, tmp_path):
    # A reversed schedule is still a permutation of the node set, so the
    # container parses — only the verifier sees the ordering violation.
    doctored = dataclasses.replace(
        engine, schedule=tuple(reversed(engine.schedule)))
    path = tmp_path / "reordered.oeng"
    save_engine(doctored, path)
    assert "ORV112" in rules(verify_target(str(path)))


def test_plan_coverage_mismatch_flagged(engine):
    kernel_plan = dict(engine.kernel_plan)
    kernel_plan.pop(engine.schedule[0])
    doctored = dataclasses.replace(engine, kernel_plan=kernel_plan)
    assert "ORV108" in rules(verify_engine(doctored))


def test_fallback_chain_winner_mismatch_flagged(engine):
    name = engine.schedule[0]
    fallback = dict(engine.fallback_plan)
    fallback[name] = ("definitely-not-the-winner",) + tuple(fallback[name])
    doctored = dataclasses.replace(engine, fallback_plan=fallback)
    assert "ORV107" in rules(verify_engine(doctored))


def test_value_type_mismatch_survives_roundtrip(engine, tmp_path):
    # Doctor one recorded shape; the header stays structurally valid.
    value_types = dict(engine.value_types)
    name = engine.graph.nodes[0].outputs[0]
    shape, dtype = value_types[name]
    value_types[name] = (tuple(dim + 1 for dim in shape), dtype)
    doctored = dataclasses.replace(engine, value_types=value_types)
    path = tmp_path / "retyped.oeng"
    save_engine(doctored, path)
    assert "ORV104" in rules(verify_target(str(path)))


def test_stale_host_fingerprint_is_a_warning(engine, tmp_path):
    fingerprint = dict(engine.fingerprint)
    fingerprint["machine"] = "pdp11"
    doctored = dataclasses.replace(engine, fingerprint=fingerprint)
    path = tmp_path / "stale.oeng"
    save_engine(doctored, path)
    report = verify_target(str(path))
    assert rules(report) == {"ORV110"}
    assert report.exit_code() == 0          # warning: loads still work
    assert report.exit_code(strict=True) == 1


def test_unknown_zoo_target_is_a_finding():
    report = verify_target("no-such-model")
    assert rules(report) == {"ORV100"} and report.exit_code() == 1


def test_every_zoo_model_name_resolves():
    # Full-size verification of each model runs in the CI lint-gate; here
    # we only pin that the target resolution path handles each name.
    for entry in zoo.list_models():
        assert entry.name  # registry sanity


# -- engines with fused residual convs -------------------------------------------


@pytest.mark.parametrize("model", ["wrn-40-2", "resnet18"])
def test_residual_conv_engine_verifies_clean_and_rejects_a_misshapen_residual(
        model, tmp_path):
    engine = compile_graph(zoo.build(model, image_size=16))
    residual = [n for n in engine.graph.nodes
                if n.op_type == "Conv" and len(n.inputs) == 4]
    assert residual
    path = tmp_path / f"{model}.oeng"
    save_engine(engine, path)
    report = verify_target(str(path))
    assert report.exit_code() == 0 and len(report) == 0

    # Point one residual at the graph input: a structurally valid file
    # whose residual no longer has the conv output's shape.
    graph = engine.graph.copy()
    target = next(n for n in graph.nodes if n.name == residual[0].name)
    target.inputs[3] = graph.input_names[0]
    mutated = tmp_path / f"{model}-mutated.oeng"
    save_engine(dataclasses.replace(engine, graph=graph), mutated)
    findings = verify_target(str(mutated))
    assert findings.exit_code() != 0
    assert any(f.rule == "ORV104" and "residual shape" in f.message
               for f in findings)

