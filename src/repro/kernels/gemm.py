"""Matrix-multiply primitives and the Gemm/MatMul operator kernels.

The primitives (:func:`gemm_blas`, :func:`gemm_blocked`, :func:`gemm_naive`)
are the pluggable heart of GEMM convolution: an
:class:`~repro.kernels.context.ExecutionContext` carries one of them, so a
backend can reroute *all* matrix multiplies in a network through, say, the
blocked pure-numpy GEMM — which is how the DarkNet framework simulation
reproduces "inference time measured in seconds".
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ir.node import Node
from repro.kernels.context import ExecutionContext, gemm_blas
from repro.kernels.registry import kernel

# ---------------------------------------------------------------------------
# primitives (gemm_blas lives beside ExecutionContext, which recognises it)
# ---------------------------------------------------------------------------


def gemm_blocked(a: np.ndarray, b: np.ndarray, block: int = 48) -> np.ndarray:
    """Cache-blocked GEMM without BLAS.

    Accumulates ``block``-sized panels with numpy outer products. Correct
    for any shapes, several times slower than BLAS — the performance class
    of a hand-written C GEMM without vendor-tuned micro-kernels.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"gemm_blocked needs 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimension mismatch: {a.shape} x {b.shape}")
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols), dtype=np.result_type(a.dtype, b.dtype))
    for i0 in range(0, rows, block):
        i1 = min(i0 + block, rows)
        for k0 in range(0, inner, block):
            k1 = min(k0 + block, inner)
            a_panel = a[i0:i1, k0:k1]
            b_panel = b[k0:k1, :]
            # Rank-`block` update of the output panel, one column of the
            # A panel at a time (outer-product accumulation).
            for k in range(k1 - k0):
                out[i0:i1, :] += np.multiply.outer(a_panel[:, k], b_panel[k, :])
    return out


def gemm_naive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop scalar GEMM. Testing oracle only — O(n^3) Python time."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"gemm_naive needs 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimension mismatch: {a.shape} x {b.shape}")
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols), dtype=np.float64)
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += float(a[i, k]) * float(b[k, j])
            out[i, j] = acc
    return out.astype(np.result_type(a.dtype, b.dtype), copy=False)


GEMM_PRIMITIVES = {
    "blas": gemm_blas,
    "blocked": gemm_blocked,
    "naive": gemm_naive,
}

# ---------------------------------------------------------------------------
# operator kernels
# ---------------------------------------------------------------------------


def matmul_rows(a: np.ndarray, b: np.ndarray, ctx: ExecutionContext) -> np.ndarray:
    """2-D ``a @ b`` as one ``(1, K) @ (K, N)`` call per row of ``a``.

    BLAS takes a differently rounded path for ``M = 1`` than for a larger
    ``M``, so a whole-batch call gives row ``i`` other bits than a batch-1
    run of the same row; one call shape per row makes a row's bits
    independent of its batch companions (a served answer must not depend
    on its batch bucket). Raced on one x86-64 core against the whole-batch
    call and a zero-padded block of 4 rows: equal at ``M = 1``, 2.2-4.4x
    faster at ``M = 2..4`` on a (K, 1000) head, 8 us slower at ``M = 4``
    on wrn-40-2's (128, 10) head; the padded block was slowest throughout.
    """
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a.dtype, b.dtype))
    for row in range(a.shape[0]):
        ctx.matmul(a[row:row + 1], b, out=out[row:row + 1])
    return out


@kernel("Gemm", "default", priority=100)
def gemm_op(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """ONNX Gemm: ``alpha * A' @ B' + beta * C`` with optional transposes."""
    a, b = inputs[0], inputs[1]
    c = inputs[2] if len(inputs) > 2 else None
    alpha = node.attrs.get_float("alpha", 1.0)
    beta = node.attrs.get_float("beta", 1.0)
    if node.attrs.get_int("transA", 0):
        a = a.T
    if node.attrs.get_int("transB", 0):
        b = b.T
    # Transposed views go straight to BLAS (it takes transpose flags);
    # forcing contiguity here would copy the weight matrix on every run.
    out = matmul_rows(a, b, ctx)
    if alpha != 1.0:
        out = out * np.asarray(alpha, dtype=out.dtype)
    if c is not None and beta != 0.0:
        scaled = c if beta == 1.0 else c * np.asarray(beta, dtype=c.dtype)
        out = out + scaled
    return [out.astype(inputs[0].dtype, copy=False)]


@kernel("MatMul", "default", priority=100)
def matmul_op(
    inputs: Sequence[np.ndarray], node: Node, ctx: ExecutionContext
) -> list[np.ndarray]:
    """Batched matrix multiply with numpy broadcasting semantics.

    The 2-D case goes row by row (:func:`matmul_rows`).
    """
    a, b = inputs[0], inputs[1]
    if a.ndim == 2 and b.ndim == 2:
        return [matmul_rows(a, b, ctx)]
    return [np.matmul(a, b)]
