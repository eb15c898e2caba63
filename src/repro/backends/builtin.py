"""Built-in backends.

* ``orpheus`` — the paper's default configuration: GEMM (im2col) convolution
  everywhere, vectorised direct depthwise, BLAS matmul.
* ``reference`` — slow, obviously-correct kernels; the testing oracle.
* ``direct`` / ``spatial_pack`` / ``winograd`` — single-algorithm backends
  used by the per-layer experiments and ablations.
* ``int8`` — post-training-quantized execution: graphs prepared against it
  are auto-quantized (:mod:`repro.quant.auto`) and run uint8 regions with
  the fast QLinearConv kernels; anything the quantizer or the quantized
  kernels cannot handle stays on the float ``orpheus`` path structurally.
"""

from __future__ import annotations

from repro.backends.backend import Backend, register_backend

ORPHEUS = register_backend(Backend(
    name="orpheus",
    description="GEMM convolution + direct depthwise (paper default)",
    preferences={
        "Conv": ("direct_dw", "im2col"),
        "MaxPool": ("offsets",),
        "AveragePool": ("offsets",),
    },
    gemm="blas",
))

REFERENCE = register_backend(Backend(
    name="reference",
    description="naive loop kernels; testing oracle (slow)",
    preferences={
        "Conv": ("reference",),
        "MaxPool": ("loops",),
        "AveragePool": ("loops",),
        "Gemm": ("default",),
    },
    gemm="naive",
    include_experimental=True,
))

DIRECT = register_backend(Backend(
    name="direct",
    description="kernel-offset direct convolution everywhere it applies",
    preferences={"Conv": ("direct_dw", "direct", "im2col")},
))

SPATIAL_PACK = register_backend(Backend(
    name="spatial_pack",
    description="TVM-style tiled spatial-pack convolution",
    preferences={"Conv": ("direct_dw", "spatial_pack", "im2col")},
))

WINOGRAD = register_backend(Backend(
    name="winograd",
    description="Winograd F(2x2,3x3) where applicable, GEMM elsewhere",
    preferences={"Conv": ("direct_dw", "winograd", "im2col")},
))

INT8 = register_backend(Backend(
    name="int8",
    description="auto-quantized uint8 inference with fused requantization",
    preferences={
        # Quantized ops: arena kernels first, exact f64 formulation next,
        # and candidates() appends the "reference" alias as the final
        # fallback — a quantized node degrades inside its own chain.
        "QLinearConv": ("qdirect_dw", "qgemm", "default"),
        "QuantizeLinear": ("fast", "default"),
        "DequantizeLinear": ("fast", "default"),
        # Float residue (unconverted convs, pools, classifier) runs the
        # regular orpheus selection.
        "Conv": ("direct_dw", "im2col"),
        "MaxPool": ("offsets",),
        "AveragePool": ("offsets",),
    },
    gemm="blas",
    quantize=True,
))
