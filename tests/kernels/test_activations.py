"""Activation kernels: values, stability, attribute handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.node import Node
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import REGISTRY


def run(op_type, inputs, attrs=None, input_names=None):
    names = input_names or [f"i{k}" for k in range(len(inputs))]
    node = Node(op_type, names, ["y"], attrs)
    return REGISTRY.get(op_type, "default").fn(
        list(inputs), node, ExecutionContext())[0]


class TestRelu:
    def test_values(self):
        out = run("Relu", [np.array([-1.0, 0.0, 2.0], np.float32)])
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_leaky(self):
        out = run("LeakyRelu", [np.array([-2.0, 4.0], np.float32)],
                  {"alpha": 0.5})
        np.testing.assert_allclose(out, [-1.0, 4.0])

    def test_leaky_default_alpha(self):
        out = run("LeakyRelu", [np.array([-1.0], np.float32)])
        np.testing.assert_allclose(out, [-0.01], rtol=1e-6)


class TestClip:
    def test_attr_bounds(self):
        out = run("Clip", [np.array([-5.0, 3.0, 9.0], np.float32)],
                  {"min": 0.0, "max": 6.0})
        np.testing.assert_array_equal(out, [0.0, 3.0, 6.0])

    def test_input_bounds_opset11(self):
        x = np.array([-5.0, 3.0, 9.0], np.float32)
        lo = np.array(0.0, np.float32)
        hi = np.array(6.0, np.float32)
        out = run("Clip", [x, lo, hi])
        np.testing.assert_array_equal(out, [0.0, 3.0, 6.0])

    def test_min_only(self):
        out = run("Clip", [np.array([-1.0, 5.0], np.float32)], {"min": 0.0})
        np.testing.assert_array_equal(out, [0.0, 5.0])


class TestSigmoidTanh:
    def test_sigmoid_range_and_midpoint(self):
        out = run("Sigmoid", [np.array([0.0], np.float32)])
        assert out[0] == pytest.approx(0.5)

    def test_sigmoid_extreme_values_stable(self):
        out = run("Sigmoid", [np.array([-1e4, 1e4], np.float32)])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-6)

    def test_tanh(self):
        x = np.array([-1.0, 0.0, 1.0], np.float32)
        np.testing.assert_allclose(run("Tanh", [x]), np.tanh(x), rtol=1e-6)


class TestSoftmax:
    def test_sums_to_one(self, rng):
        x = rng.standard_normal((3, 7)).astype(np.float32)
        out = run("Softmax", [x])
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-5)

    def test_axis(self, rng):
        x = rng.standard_normal((3, 7)).astype(np.float32)
        out = run("Softmax", [x], {"axis": 0})
        np.testing.assert_allclose(out.sum(axis=0), 1.0, rtol=1e-5)

    def test_large_logits_stable(self):
        out = run("Softmax", [np.array([[1e4, 1e4 + 1]], np.float32)])
        assert np.isfinite(out).all()

    def test_invariant_to_shift(self, rng):
        x = rng.standard_normal((2, 5)).astype(np.float64)
        np.testing.assert_allclose(
            run("Softmax", [x]), run("Softmax", [x + 100.0]), rtol=1e-9)


class TestMiscUnary:
    def test_exp_sqrt_neg_abs(self):
        x = np.array([1.0, 4.0], np.float32)
        np.testing.assert_allclose(run("Exp", [x]), np.exp(x), rtol=1e-6)
        np.testing.assert_allclose(run("Sqrt", [x]), np.sqrt(x), rtol=1e-6)
        np.testing.assert_array_equal(run("Neg", [x]), -x)
        np.testing.assert_array_equal(run("Abs", [np.array([-2.0], np.float32)]),
                                      [2.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
def test_softmax_is_distribution(values):
    x = np.array([values], dtype=np.float64)
    out = run("Softmax", [x])
    assert (out >= 0).all()
    assert out.sum() == pytest.approx(1.0, rel=1e-9)
