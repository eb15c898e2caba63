"""Quickstart: load a model, run inference, inspect where the time goes.

Run with:  python examples/quickstart.py
"""

from repro import InferenceSession
from repro.analysis import count_graph, footprint
from repro.bench.workloads import model_input
from repro.models import zoo


def main() -> None:
    # 1. Build a model from the zoo (seeded random weights — the zoo mirrors
    #    the five networks of the paper's evaluation).
    graph = zoo.build("resnet18")
    print(f"model: {graph.name}, {len(graph.nodes)} nodes, "
          f"{graph.num_parameters() / 1e6:.1f} M parameters")

    # 2. Prepare an inference session. Preparation validates the graph, runs
    #    the simplification passes (BN folding, activation fusion, ...),
    #    selects a kernel implementation per layer, and plans memory.
    session = InferenceSession(graph, backend="orpheus")
    print(f"after simplification: {len(session.graph.nodes)} nodes")

    # 3. Run on a synthetic image batch.
    x = model_input("resnet18")
    probabilities = session.run({"input": x})["output"]
    print(f"output shape {probabilities.shape}, "
          f"top-1 class {probabilities.argmax()}, "
          f"p = {probabilities.max():.4f}")

    # 4. Per-layer profile: the paper's individual-layer evaluation.
    profile = session.profile({"input": x}, repeats=5)
    print()
    print(profile.table(count=10))

    # 5. Static analysis: the edge-deployment cost picture.
    print()
    print("cost:", count_graph(session.graph).summary())
    print("memory:", footprint(session.graph, "resnet18").summary())


if __name__ == "__main__":
    main()
