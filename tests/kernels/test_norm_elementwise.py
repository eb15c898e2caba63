"""BatchNormalization and the elementwise binary kernels."""

import numpy as np
import pytest

from repro.ir.node import Node
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import REGISTRY


def run(op_type, inputs, attrs=None):
    names = [f"i{k}" for k in range(len(inputs))]
    node = Node(op_type, names, ["y"], attrs)
    return REGISTRY.get(op_type, "default").fn(
        list(inputs), node, ExecutionContext())[0]


class TestBatchNorm:
    def test_matches_formula(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        scale = rng.standard_normal(3).astype(np.float32)
        bias = rng.standard_normal(3).astype(np.float32)
        mean = rng.standard_normal(3).astype(np.float32)
        var = np.abs(rng.standard_normal(3)).astype(np.float32) + 0.5
        eps = 1e-5
        out = run("BatchNormalization", [x, scale, bias, mean, var],
                  {"epsilon": eps})
        expected = (scale.reshape(1, 3, 1, 1)
                    * (x - mean.reshape(1, 3, 1, 1))
                    / np.sqrt(var.reshape(1, 3, 1, 1) + eps)
                    + bias.reshape(1, 3, 1, 1))
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_identity_params_passthrough(self, rng):
        x = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        ones = np.ones(2, np.float32)
        zeros = np.zeros(2, np.float32)
        out = run("BatchNormalization", [x, ones, zeros, zeros, ones],
                  {"epsilon": 0.0})
        np.testing.assert_allclose(out, x, rtol=1e-6)

    def test_rank2_input(self, rng):
        x = rng.standard_normal((4, 3)).astype(np.float32)
        ones = np.ones(3, np.float32)
        zeros = np.zeros(3, np.float32)
        out = run("BatchNormalization", [x, ones, zeros, zeros, ones])
        assert out.shape == (4, 3)


class TestElementwise:
    @pytest.mark.parametrize("op,fn", [
        ("Add", np.add), ("Sub", np.subtract), ("Mul", np.multiply),
        ("Div", np.divide), ("Max", np.maximum), ("Min", np.minimum),
    ])
    def test_matches_numpy(self, op, fn, rng):
        a = rng.standard_normal((2, 3)).astype(np.float32)
        b = rng.standard_normal((2, 3)).astype(np.float32) + 2.0
        np.testing.assert_allclose(run(op, [a, b]), fn(a, b), rtol=1e-6)

    def test_broadcasting(self, rng):
        a = rng.standard_normal((2, 3, 4)).astype(np.float32)
        b = rng.standard_normal((4,)).astype(np.float32)
        assert run("Add", [a, b]).shape == (2, 3, 4)

    def test_pow(self):
        a = np.array([2.0, 3.0], np.float32)
        b = np.array([3.0, 2.0], np.float32)
        np.testing.assert_allclose(run("Pow", [a, b]), [8.0, 9.0])

    def test_dtype_promotion(self):
        a = np.zeros(2, np.float32)
        b = np.zeros(2, np.float64)
        assert run("Add", [a, b]).dtype == np.float64
