"""Systems-research workflow: per-layer algorithm study + autotuning.

The research loop the paper builds Orpheus for: race alternative kernel
implementations on individual layers, find where each algorithm wins, then
let the autotuner assemble a per-layer-optimal configuration of a whole
network and compare it against the fixed backends.

Run with:  python examples/layer_experiments.py
"""

from repro import Backend, InferenceSession
from repro.bench.layerwise import STANDARD_CONV_CASES, race_conv_impls
from repro.bench.workloads import model_input
from repro.models import zoo
from repro.passes import default_pipeline
from repro.runtime.autotune import autotune


def main() -> None:
    # -- 1. Individual layers: who wins where? -----------------------------
    result = race_conv_impls(cases=STANDARD_CONV_CASES, repeats=5)
    print(result.table())
    print()

    # -- 2. Whole network: fixed backends vs an autotuned configuration ----
    model = "wrn-40-2"
    graph = default_pipeline().run(zoo.build(model))
    x = model_input(model)
    feed = {"input": x}

    print(f"{model}: fixed backends vs autotuned")
    print(f"{'configuration':<16} {'median ms':>10}")
    for backend_name in ("orpheus", "direct", "spatial_pack", "winograd"):
        session = InferenceSession(graph, backend=backend_name,
                                   optimize=False)
        times = sorted(session.time(feed, repeats=7, warmup=2))
        print(f"{backend_name:<16} {1e3 * times[len(times) // 2]:>10.2f}")

    overrides = autotune(
        graph,
        {"Conv": ("im2col", "direct", "spatial_pack", "winograd",
                  "direct_dw")},
        repeats=3,
    )
    tuned = Backend(name="autotuned", gemm="blas").with_overrides(overrides)
    session = InferenceSession(graph, backend=tuned, optimize=False)
    times = sorted(session.time(feed, repeats=7, warmup=2))
    print(f"{'autotuned':<16} {1e3 * times[len(times) // 2]:>10.2f}")

    histogram: dict[str, int] = {}
    for impl in overrides.values():
        histogram[impl] = histogram.get(impl, 0) + 1
    print(f"\nautotuner's per-layer choices: {histogram}")


if __name__ == "__main__":
    main()
