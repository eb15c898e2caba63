"""Integrating a third-party backend — the paper's headline design goal.

Orpheus treats layers as first-class citizens with multiple implementations
selected at runtime. Adding a backend is two steps:

  1. register kernel implementations for the ops you accelerate;
  2. register a Backend naming your implementations in its preferences.

This example adds a (deliberately simple) "lowp" third-party library that
computes convolutions in float16 — a stand-in for an external accelerator
SDK like Arm Compute Library or Intel DNNL from the paper — then races it
against the stock backends on MobileNetV1.

Run with:  python examples/custom_backend.py
"""

import numpy as np

from repro import Backend, InferenceSession, register_backend
from repro.bench.workloads import model_input
from repro.kernels import REGISTRY, KernelImpl
from repro.kernels.common import (
    conv_geometry,
    conv_operands,
    finalize_conv,
    im2col,
    pad_input,
)
from repro.models import zoo


def lowp_conv(inputs, node, ctx):
    """'Third-party' conv: GEMM convolution with float16 accumulation."""
    x, weight, bias, residual = conv_operands(inputs)
    params, activation = conv_geometry(node, x.shape, weight.shape, ctx)
    if params.group != 1:  # the 'library' only ships ungrouped kernels
        raise NotImplementedError
    columns = im2col(pad_input(x, params.pads), params).astype(np.float16)
    w_matrix = weight.reshape(params.out_channels, -1).astype(np.float16)
    out = np.matmul(w_matrix, columns).astype(np.float32)
    result = out.reshape(params.batch, params.out_channels,
                         params.out_h, params.out_w)
    return [finalize_conv(result, bias, residual, activation)]


def main() -> None:
    # Step 1: register the kernel. The applicability predicate keeps the
    # runtime honest: the backend silently falls back where the kernel
    # cannot run (here: grouped/depthwise convolutions).
    REGISTRY.register(KernelImpl(
        op_type="Conv",
        name="lowp_conv",
        fn=lowp_conv,
        priority=10,
        applicable=lambda node, shapes: node.attrs.get_int("group", 1) == 1,
    ))

    # Step 2: register the backend.
    lowp = register_backend(Backend(
        name="lowp",
        description="third-party float16 GEMM convolution library",
        preferences={"Conv": ("direct_dw", "lowp_conv", "im2col")},
    ))

    graph = zoo.build("mobilenet-v1")
    x = model_input("mobilenet-v1")
    feed = {"input": x}

    reference_out = None
    print(f"{'backend':<10} {'median ms':>10}  {'top-1':>6}  max|diff|")
    for backend in ("orpheus", lowp):
        session = InferenceSession(graph, backend=backend)
        out = session.run(feed)["output"]
        times = session.time(feed, repeats=5, warmup=1)
        if reference_out is None:
            reference_out = out
            diff = 0.0
        else:
            diff = float(np.abs(out - reference_out).max())
        name = backend if isinstance(backend, str) else backend.name
        print(f"{name:<10} {1e3 * sorted(times)[len(times) // 2]:>10.2f}  "
              f"{out.argmax():>6}  {diff:.2e}")

    # Which kernels did the lowp backend actually pick?
    session = InferenceSession(graph, backend=lowp)
    chosen = {}
    for impl in session.kernel_plan().values():
        chosen[impl] = chosen.get(impl, 0) + 1
    print("\nlowp kernel selection:", chosen)


if __name__ == "__main__":
    main()
