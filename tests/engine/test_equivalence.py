"""Differential battery: a warm-started session must equal a cold one.

The whole point of compiled engines is skipping prepare work *without
changing a single bit of output*. For every zoo model and every builtin
backend this suite compiles an engine, reloads it, and demands bitwise
equality against a cold prepare — outputs, kernel plans, fallback chains,
memory plans, schedules.

Models run at reduced input resolution (the smallest each topology
accepts) so the full cross product stays fast; the prepare-time artifacts
under test — plans, schedules, kernel choices — exercise exactly the same
code paths at any resolution. The naive `reference` backend is orders of
magnitude slower per run, so it proves the differential property on the
smallest model only, at 8x8 (at the native 32x32 that one case took more
than half of the whole suite's wall time).
"""

import numpy as np
import pytest

from repro.backends import list_backends
from repro.bench.workloads import synthetic_image_batch
from repro.engine import (
    compile_graph,
    compile_to_file,
    load_engine,
    rebatch,
    save_engine,
)
from repro.errors import EngineError, ShapeInferenceError
from repro.models import zoo
from repro.runtime.session import InferenceSession
from repro.testing import random_ir_graph
from tests.conftest import baked_batch_classifier

#: Smallest input resolution each zoo topology accepts (None = native).
_SIZES = {
    "wrn-40-2": None,       # native 32x32
    "inception-v3": 96,     # stem strides need >= ~96
}
_DEFAULT_SIZE = 64

MODELS = tuple(entry.name for entry in zoo.list_models())
BACKENDS = tuple(backend.name for backend in list_backends())

#: The naive-GEMM reference backend only proves the property on the
#: smallest model; a full sweep would dominate the suite's runtime.
_REFERENCE_MODEL = "wrn-40-2"
_REFERENCE_SIZE = 8


def _build(model: str, backend: str = "orpheus"):
    if backend == "reference":
        return zoo.build(model, image_size=_REFERENCE_SIZE)
    return zoo.build(model, image_size=_SIZES.get(model, _DEFAULT_SIZE))


def _feed(graph) -> dict:
    shape = tuple(graph.inputs[0].shape)
    return {"input": synthetic_image_batch(shape, seed=3)}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("model", MODELS)
def test_warm_session_bitwise_equals_cold(model, backend, tmp_path):
    if backend == "reference" and model != _REFERENCE_MODEL:
        pytest.skip("reference backend proves the property on the "
                    "smallest model only (naive GEMM runtime)")
    path = tmp_path / f"{model}-{backend}.oeng"
    compile_to_file(_build(model, backend), path, backend=backend, threads=1)

    cold = InferenceSession(_build(model, backend), backend=backend,
                            threads=1)
    warm = InferenceSession.from_engine(path)

    feed = _feed(cold.graph)
    cold_out = cold.run(feed)
    warm_out = warm.run(feed)
    assert set(cold_out) == set(warm_out)
    for name in cold_out:
        assert cold_out[name].dtype == warm_out[name].dtype
        assert cold_out[name].shape == warm_out[name].shape
        # Bitwise, not approximate: the same kernels in the same order on
        # the same plan must produce the same bytes.
        assert cold_out[name].tobytes() == warm_out[name].tobytes()


@pytest.mark.parametrize("model", ["wrn-40-2", "resnet18"])
def test_residual_conv_engines_load_warm_equal_cold(model, tmp_path):
    """The engines the property above covers do carry fused residual
    convs (``""`` bias slots included), and round-trip them bitwise."""
    path = tmp_path / f"{model}.oeng"
    compile_to_file(_build(model), path, backend="orpheus", threads=1)
    warm = InferenceSession.from_engine(path)
    residual = [n for n in warm.graph.nodes
                if n.op_type == "Conv" and len(n.inputs) == 4]
    assert len(residual) == {"wrn-40-2": 18, "resnet18": 8}[model]
    cold = InferenceSession(_build(model), backend="orpheus", threads=1)
    assert [n.inputs for n in cold.graph.nodes] == [n.inputs for n in warm.graph.nodes]
    feed = _feed(cold.graph)
    for _ in range(2):
        assert cold.run(feed)["output"].tobytes() == warm.run(feed)["output"].tobytes()


@pytest.mark.parametrize("model", MODELS)
def test_plans_survive_round_trip(model, tmp_path):
    """kernel/fallback/memory plans and schedule match the cold prepare."""
    path = tmp_path / f"{model}.oeng"
    compile_to_file(_build(model), path, backend="orpheus", threads=1)
    cold = InferenceSession(_build(model), backend="orpheus", threads=1)
    warm = InferenceSession.from_engine(path)

    assert warm.kernel_plan() == cold.kernel_plan()
    assert warm.fallback_plan() == cold.fallback_plan()
    assert warm.memory_plan == cold.memory_plan
    assert ([n.name for n in warm._executor.schedule_nodes]
            == [n.name for n in cold._executor.schedule_nodes])
    assert warm.loaded_engine is not None
    for name, weight in cold.graph.initializers.items():
        np.testing.assert_array_equal(
            warm.graph.initializers[name], weight)


# -- rebatch: one engine, re-prepared at another batch over the same weights ---

#: ``rebatch`` is about plans, not resolution: the smallest sizes that keep
#: every topology valid keep the 6 x 7 matrix in seconds.
_REBATCH_SIZES = {"inception-v3": 75}
_REBATCH_DEFAULT_SIZE = 32

_PLAN_FIELDS = ("schedule", "kernel_plan", "fallback_plan", "value_types")


def _build_at(model: str, backend: str, batch: int):
    size = (_REFERENCE_SIZE if backend == "reference"
            else _REBATCH_SIZES.get(model, _REBATCH_DEFAULT_SIZE))
    return zoo.build(model, batch=batch, image_size=size)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("model", MODELS)
def test_rebatch_is_a_cold_compile_at_that_batch(model, backend):
    if backend == "reference" and model != _REFERENCE_MODEL:
        pytest.skip("reference backend proves the property on the "
                    "smallest model only (naive GEMM runtime)")
    source = compile_graph(_build_at(model, backend, 4), backend=backend,
                           threads=1)
    feed4 = _feed(source.graph)
    quantized = source.quantization is not None
    if quantized:
        wide = InferenceSession.from_engine(source).run(feed4)
    # The naive-GEMM backend costs ~10 s per sample: one bucket proves it.
    for batch in (1,) if backend == "reference" else (1, 2):
        derived = rebatch(source, batch)
        cold = compile_graph(_build_at(model, backend, batch),
                             backend=backend, threads=1)
        for field in _PLAN_FIELDS:
            assert getattr(derived, field) == getattr(cold, field), field
        assert derived.graph.nodes is source.graph.nodes
        for name, array in source.graph.initializers.items():
            # Weights — and on int8 the scales and zero points calibrated
            # at batch 4 — are the source engine's own arrays.
            assert derived.graph.initializers[name] is array
        feed = {"input": feed4["input"][:batch]}
        got = InferenceSession.from_engine(derived).run(feed)
        if quantized:
            # A cold batch-b int8 compile calibrates on other data, so it
            # is not the oracle; the batch-4 run's own rows are, bit for
            # bit: integer accumulation is exact, the scales are the same
            # arrays, and ``qgemm`` computes each image's rows alike
            # whatever else shares its GEMM block.
            for name, rows in got.items():
                assert rows.tobytes() == wide[name][:batch].tobytes()
        else:
            want = InferenceSession.from_engine(cold).run(feed)
            for name, rows in got.items():
                assert rows.tobytes() == want[name].tobytes()


def test_rebatched_engine_round_trips_through_a_file(tmp_path):
    """A bucket is an ordinary format-v2 engine: save, load, run."""
    source = compile_graph(_build_at("wrn-40-2", "orpheus", 4), threads=1)
    derived = rebatch(source, 1)
    path = tmp_path / "bucket-1.oeng"
    save_engine(derived, path)
    loaded = load_engine(path)
    for field in _PLAN_FIELDS:
        assert getattr(loaded, field) == getattr(derived, field), field
    feed = _feed(derived.graph)
    a = InferenceSession.from_engine(loaded).run(feed)
    b = InferenceSession.from_engine(derived).run(feed)
    for name in a:
        assert a[name].shape[0] == 1
        assert a[name].tobytes() == b[name].tobytes()


@pytest.mark.parametrize("seed", range(25))
def test_rebatched_rows_equal_single_sample_outputs(seed):
    """Over generated graphs: every row of a wider bucket is that sample's
    batch-1 output, and no weight array is copied on the way."""
    source = compile_graph(random_ir_graph(seed), threads=1)
    single = InferenceSession.from_engine(source)
    samples = synthetic_image_batch(
        (3, *source.graph.inputs[0].shape[1:]), seed=seed)
    for batch in (2, 3):
        derived = rebatch(source, batch)
        for name, array in source.graph.initializers.items():
            assert derived.graph.initializers[name] is array
        rows = InferenceSession.from_engine(derived).run(
            {"input": samples[:batch]})
        for index in range(batch):
            alone = single.run({"input": samples[index:index + 1]})
            for name in rows:
                np.testing.assert_allclose(
                    rows[name][index], alone[name][0], rtol=0, atol=1e-5)


@pytest.mark.parametrize("backend", ["orpheus", "int8"])
@pytest.mark.parametrize("model", MODELS)
def test_a_row_is_bitwise_its_batch_1_answer_whatever_its_companions(
        model, backend):
    """The serving pool's path (compile at batch 4, ``rebatch`` to 1):
    row i of a batch-4 run equals the batch-1 run of sample i bit for bit,
    and changing its three companions changes none of its bits."""
    size = 16 if model == "wrn-40-2" else _SIZES.get(model, 32)
    source = compile_graph(
        zoo.build(model, batch=4, image_size=size, softmax=False),
        backend=backend, threads=1)
    wide = InferenceSession.from_engine(source)
    single = InferenceSession.from_engine(rebatch(source, 1))
    samples = synthetic_image_batch((7, 3, size, size), seed=5)
    rows = wide.run({"input": samples[:4]})["output"]
    for index in range(4):
        alone = single.run({"input": samples[index:index + 1]})["output"]
        assert rows[index:index + 1].tobytes() == alone.tobytes(), index
    others = np.concatenate([samples[:1], samples[4:]])
    assert wide.run({"input": others})["output"][0].tobytes() == rows[0].tobytes()


class TestRebatchRefuses:
    def test_a_batch_baked_into_a_reshape(self):
        engine = compile_graph(baked_batch_classifier((4, 256)), threads=1)
        with pytest.raises(ShapeInferenceError):
            rebatch(engine, 1)

    def test_outputs_whose_rows_are_not_requests(self):
        engine = compile_graph(baked_batch_classifier((4, -1)), threads=1)
        with pytest.raises(EngineError, match="leading dimension"):
            rebatch(engine, 1)


def test_tuned_choices_survive_in_the_bucket():
    source = compile_graph(
        _build_at("wrn-40-2", "orpheus", 4), threads=1, tune_repeats=1,
        tune={"Conv": ("direct", "spatial_pack")})
    assert source.tuned
    derived = rebatch(source, 1)
    assert derived.tuned == source.tuned
    for node, impl in source.tuned.items():
        assert derived.kernel_plan[node] == impl
