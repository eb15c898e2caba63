"""The oracle against the program's slowest, most literal backend."""

import numpy as np

from perfbench import oracle


def test_oracle_agrees_with_reference_backend_on_small_wrn():
    from repro import InferenceSession, models

    graph = models.build("wrn-40-2", image_size=8, softmax=False)
    images = np.random.default_rng(0).standard_normal(
        (2, 3, 8, 8)).astype(np.float32)
    want = oracle.evaluate(graph, images)       # both samples, one batch
    session = InferenceSession(graph, backend="reference", optimize=False)
    for index in range(len(images)):
        got = session.run({"input": images[index:index + 1]})["output"][0]
        assert oracle.matches(got, want[index])
    # The rule must be able to fail: another sample's output is not a match.
    assert not oracle.matches(want[1], want[0])
    assert not oracle.matches(np.full_like(want[0], np.nan), want[0])


def test_pooling_and_concat_against_brute_force():
    from repro.ir import Node

    x = np.random.default_rng(1).standard_normal((2, 3, 7, 7))
    attrs = {"kernel_shape": (3, 3), "strides": (2, 2), "pads": (1, 1, 1, 1)}
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)),
                    constant_values=-np.inf)
    want = np.empty((2, 3, 4, 4))
    for i in range(4):
        for j in range(4):
            want[:, :, i, j] = padded[:, :, 2 * i:2 * i + 3,
                                      2 * j:2 * j + 3].max(axis=(2, 3))
    got = oracle._OPS["MaxPool"](Node("MaxPool", ["x"], ["y"], attrs), x)
    assert np.array_equal(got, want)
    # Average pool, pads excluded from the count.
    got = oracle._OPS["AveragePool"](
        Node("AveragePool", ["x"], ["y"], attrs), np.ones((1, 1, 7, 7)))
    assert np.allclose(got, 1.0)
