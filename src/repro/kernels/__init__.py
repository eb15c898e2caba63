"""Kernel library: multiple runtime-selectable implementations per operator.

Importing this package registers every built-in kernel into
:data:`repro.kernels.registry.REGISTRY`.
"""

from repro.kernels import (  # noqa: F401  (imported for registration side effects)
    activation_kernels,
    conv_direct,
    conv_im2col,
    conv_reference,
    conv_spatialpack,
    conv_winograd,
    depthwise,
    elementwise_kernels,
    gemm,
    indexing_kernels,
    norm_kernels,
    pool_kernels,
    qconv,
    qgemm,
    shape_kernels,
)
from repro.kernels.common import ConvParams, conv_params, im2col, pad_input
from repro.kernels.context import ExecutionContext
from repro.kernels.gemm import GEMM_PRIMITIVES, gemm_blas, gemm_blocked, gemm_naive
from repro.kernels.registry import REGISTRY, KernelImpl, KernelRegistry, kernel

__all__ = [
    "ConvParams",
    "ExecutionContext",
    "GEMM_PRIMITIVES",
    "KernelImpl",
    "KernelRegistry",
    "REGISTRY",
    "conv_params",
    "gemm_blas",
    "gemm_blocked",
    "gemm_naive",
    "im2col",
    "kernel",
    "pad_input",
]
