"""GEMM primitives and the Gemm/MatMul operator kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.node import Node
from repro.kernels.context import ExecutionContext
from repro.kernels.gemm import gemm_blas, gemm_blocked, gemm_naive
from repro.kernels.registry import REGISTRY


class TestPrimitives:
    @pytest.mark.parametrize("gemm", [gemm_blocked, gemm_naive])
    def test_matches_blas(self, gemm, rng):
        a = rng.standard_normal((7, 13)).astype(np.float32)
        b = rng.standard_normal((13, 5)).astype(np.float32)
        np.testing.assert_allclose(gemm(a, b), gemm_blas(a, b),
                                   rtol=1e-4, atol=1e-5)

    def test_blocked_with_odd_block_boundaries(self, rng):
        a = rng.standard_normal((100, 49)).astype(np.float32)
        b = rng.standard_normal((49, 101)).astype(np.float32)
        np.testing.assert_allclose(gemm_blocked(a, b, block=48), a @ b,
                                   rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("gemm", [gemm_blocked, gemm_naive])
    def test_rejects_mismatched_inner(self, gemm):
        with pytest.raises(ValueError, match="inner dimension"):
            gemm(np.zeros((2, 3)), np.zeros((4, 2)))

    @pytest.mark.parametrize("gemm", [gemm_blocked, gemm_naive])
    def test_rejects_non_2d(self, gemm):
        with pytest.raises(ValueError, match="2-D"):
            gemm(np.zeros((2, 3, 4)), np.zeros((4, 2)))

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 12), k=st.integers(1, 12), n=st.integers(1, 12))
    def test_blocked_property(self, m, k, n):
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        a = rng.standard_normal((m, k)).astype(np.float64)
        b = rng.standard_normal((k, n)).astype(np.float64)
        np.testing.assert_allclose(gemm_blocked(a, b, block=5), a @ b,
                                   rtol=1e-10, atol=1e-10)


def run_gemm_op(inputs, attrs=None):
    node = Node("Gemm", ["a", "b", "c"][: len(inputs)], ["y"], attrs)
    impl = REGISTRY.get("Gemm", "default")
    return impl.fn(list(inputs), node, ExecutionContext())[0]


class TestGemmOp:
    def test_plain(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 2)).astype(np.float32)
        np.testing.assert_allclose(run_gemm_op([a, b]), a @ b, rtol=1e-5)

    def test_bias_broadcast(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 2)).astype(np.float32)
        c = rng.standard_normal(2).astype(np.float32)
        np.testing.assert_allclose(run_gemm_op([a, b, c]), a @ b + c, rtol=1e-5)

    def test_transposes(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal((2, 4)).astype(np.float32)
        out = run_gemm_op([a, b], {"transA": 1, "transB": 1})
        np.testing.assert_allclose(out, a.T @ b.T, rtol=1e-5)

    def test_alpha_beta(self, rng):
        a = rng.standard_normal((2, 3)).astype(np.float32)
        b = rng.standard_normal((3, 2)).astype(np.float32)
        c = rng.standard_normal((2, 2)).astype(np.float32)
        out = run_gemm_op([a, b, c], {"alpha": 0.5, "beta": 2.0})
        np.testing.assert_allclose(out, 0.5 * (a @ b) + 2.0 * c, rtol=1e-5)

    def test_beta_zero_ignores_c(self, rng):
        a = rng.standard_normal((2, 3)).astype(np.float32)
        b = rng.standard_normal((3, 2)).astype(np.float32)
        c = np.full((2, 2), np.nan, dtype=np.float32)
        out = run_gemm_op([a, b, c], {"beta": 0.0})
        assert np.isfinite(out).all()

    def test_output_dtype_follows_a(self, rng):
        a = rng.standard_normal((2, 3)).astype(np.float32)
        b = rng.standard_normal((3, 2)).astype(np.float32)
        assert run_gemm_op([a, b]).dtype == np.float32

    def test_custom_gemm_primitive_routed(self, rng):
        calls = []

        def spy(a, b):
            calls.append((a.shape, b.shape))
            return a @ b

        node = Node("Gemm", ["a", "b"], ["y"])
        impl = REGISTRY.get("Gemm", "default")
        a = rng.standard_normal((2, 3)).astype(np.float32)
        b = rng.standard_normal((3, 2)).astype(np.float32)
        impl.fn([a, b], node, ExecutionContext(gemm=spy))
        # One (1, K) @ (K, N) call per row: a row's bits never depend on M.
        assert calls == [((1, 3), (3, 2))] * 2


class TestContextMatmul:
    """``ExecutionContext.matmul(out=)``: BLAS writes the product into
    ``out``; a rerouted primitive's result is copied in."""

    @pytest.mark.parametrize("gemm", [None, gemm_blas], ids=["unset", "blas"])
    def test_blas_writes_into_out_without_a_temporary(self, gemm, rng):
        import tracemalloc

        a = rng.standard_normal((64, 96)).astype(np.float32)
        b = rng.standard_normal((96, 256)).astype(np.float32)
        out = np.empty((64, 256), dtype=np.float32)
        ctx = ExecutionContext(gemm=gemm)
        tracemalloc.start()
        try:
            result = ctx.matmul(a, b, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result is out
        assert peak < out.nbytes // 4, peak
        np.testing.assert_array_equal(out, a @ b)

    def test_rerouted_primitive_result_is_copied_into_out(self, rng):
        calls = []

        def spy(a, b):
            calls.append((a.shape, b.shape))
            return gemm_blocked(a, b)

        a = rng.standard_normal((5, 7)).astype(np.float32)
        b = rng.standard_normal((7, 3)).astype(np.float32)
        out = np.full((5, 3), np.nan, dtype=np.float32)
        assert ExecutionContext(gemm=spy).matmul(a, b, out=out) is out
        assert calls == [((5, 7), (7, 3))]
        np.testing.assert_array_equal(out, gemm_blocked(a, b))

    @pytest.mark.parametrize("gemm", [None, gemm_blas, gemm_blocked])
    def test_without_out_returns_the_product(self, gemm, rng):
        a = rng.standard_normal((5, 7)).astype(np.float32)
        b = rng.standard_normal((7, 3)).astype(np.float32)
        np.testing.assert_allclose(ExecutionContext(gemm=gemm).matmul(a, b),
                                   a @ b, rtol=1e-5, atol=1e-5)


class TestMatMulOp:
    def test_2d(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 5)).astype(np.float32)
        node = Node("MatMul", ["a", "b"], ["y"])
        out = REGISTRY.get("MatMul", "default").fn([a, b], node, ExecutionContext())[0]
        np.testing.assert_allclose(out, a @ b, rtol=1e-5)

    def test_batched(self, rng):
        a = rng.standard_normal((2, 3, 4)).astype(np.float32)
        b = rng.standard_normal((2, 4, 5)).astype(np.float32)
        node = Node("MatMul", ["a", "b"], ["y"])
        out = REGISTRY.get("MatMul", "default").fn([a, b], node, ExecutionContext())[0]
        np.testing.assert_allclose(out, a @ b, rtol=1e-5)
