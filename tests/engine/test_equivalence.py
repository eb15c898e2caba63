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
from repro.engine import compile_to_file
from repro.models import zoo
from repro.runtime.session import InferenceSession

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


@pytest.mark.parametrize("model", MODELS)
def test_plans_survive_round_trip(model, tmp_path):
    """kernel/fallback/memory plans and schedule match the cold prepare."""
    path = tmp_path / f"{model}.oeng"
    compile_to_file(_build(model), path, backend="orpheus", threads=1)
    cold = InferenceSession(_build(model), backend="orpheus", threads=1)
    warm = InferenceSession.from_engine(path)

    assert warm.kernel_plan() == cold.kernel_plan()
    assert warm.fallback_plan() == cold.fallback_plan()
    assert warm.memory_plan.peak_bytes == cold.memory_plan.peak_bytes
    assert warm.memory_plan.arena_bytes == cold.memory_plan.arena_bytes
    assert warm.memory_plan.weight_bytes == cold.memory_plan.weight_bytes
    assert ([n.name for n in warm._executor.schedule_nodes]
            == [n.name for n in cold._executor.schedule_nodes])
    assert warm.loaded_engine is not None
    for name, weight in cold.graph.initializers.items():
        np.testing.assert_array_equal(
            warm.graph.initializers[name], weight)


def test_engine_hint_matches_from_engine(tmp_path):
    """The best-effort ``engine=`` hint loads the same plans as from_engine."""
    path = tmp_path / "hint.oeng"
    compile_to_file(_build("wrn-40-2"), path, backend="orpheus", threads=1)
    hinted = InferenceSession(
        _build("wrn-40-2"), backend="orpheus", threads=1, engine=path)
    strict = InferenceSession.from_engine(path)
    assert hinted.loaded_engine is not None
    assert hinted.kernel_plan() == strict.kernel_plan()
    feed = _feed(hinted.graph)
    a, b = hinted.run(feed), strict.run(feed)
    for name in a:
        assert a[name].tobytes() == b[name].tobytes()
