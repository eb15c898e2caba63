"""Camera-to-label pipeline: the end-user shape of edge inference.

Simulates a camera producing HWC uint8 frames, runs the full deployment
path — preprocess (resize / crop / normalise / layout), classify, decode —
and reports per-stage latency and sustained frames per second. Also drops a
Graphviz DOT of the network and a chrome://tracing profile next to the
script, showing the built-in observability tools.

Run with:  python examples/camera_pipeline.py
"""

import time

import numpy as np

from repro import InferenceSession, vision
from repro.ir.dot import save_dot
from repro.models import zoo
from repro.runtime.trace import save_chrome_trace

MODEL = "squeezenet"      # the classic low-latency edge classifier
FRAMES = 20


def synthetic_camera(frames: int, height: int = 480, width: int = 640):
    """Yield HWC uint8 'camera frames' with moving structure."""
    rng = np.random.default_rng(7)
    ys = np.linspace(0, 6 * np.pi, height, dtype=np.float32)[:, None]
    xs = np.linspace(0, 6 * np.pi, width, dtype=np.float32)[None, :]
    for index in range(frames):
        phase = index / 3.0
        pattern = 127 + 80 * np.sin(ys + phase) * np.cos(xs - phase)
        noise = rng.integers(0, 48, (height, width, 3))
        frame = np.clip(pattern[..., None] + noise, 0, 255)
        yield frame.astype(np.uint8)


def main() -> None:
    graph = zoo.build(MODEL)
    session = InferenceSession(graph, backend="orpheus")
    print(f"{MODEL}: {len(session.graph.nodes)} nodes after simplification")

    # Warm up (also populates the AOT kernel caches).
    warm = next(iter(synthetic_camera(1)))
    session.run({"input": vision.preprocess_for(MODEL, warm)})

    preprocess_s = 0.0
    inference_s = 0.0
    labels = []
    started = time.perf_counter()
    for frame in synthetic_camera(FRAMES):
        t0 = time.perf_counter()
        x = vision.preprocess_for(MODEL, frame)
        t1 = time.perf_counter()
        probabilities = session.run({"input": x})["output"]
        t2 = time.perf_counter()
        preprocess_s += t1 - t0
        inference_s += t2 - t1
        labels.append(int(probabilities.argmax()))
    wall = time.perf_counter() - started

    print(f"processed {FRAMES} frames in {wall:.2f} s "
          f"({FRAMES / wall:.1f} FPS sustained)")
    print(f"  preprocess: {preprocess_s / FRAMES * 1e3:6.2f} ms/frame")
    print(f"  inference:  {inference_s / FRAMES * 1e3:6.2f} ms/frame")
    print(f"  top-1 labels (first 10): {labels[:10]}")

    # Observability artefacts.
    save_dot(session.graph, f"{MODEL}.dot")
    profile = session.profile(
        {"input": vision.preprocess_for(MODEL, warm)}, repeats=5)
    save_chrome_trace(profile, f"{MODEL}_trace.json", process_name=MODEL)
    print(f"\nwrote {MODEL}.dot (graphviz) and {MODEL}_trace.json "
          f"(chrome://tracing)")
    print("\nhottest layers:")
    for layer in profile.hottest(5):
        print(f"  {layer.node_name:24s} {layer.op_type:10s} "
              f"{layer.median * 1e3:6.2f} ms")


if __name__ == "__main__":
    main()
