"""Independent oracle: convolutions vs scipy.signal.

The in-repo loop reference shares this codebase's padding/stride helpers;
scipy shares nothing. Agreement with both rules out a common-mode bug in
the shared geometry code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from repro.kernels.context import ExecutionContext
from repro.kernels.registry import REGISTRY
from tests.helpers import make_conv_node


def scipy_conv2d(x, w, stride=1, pad=0):
    """Cross-correlation per (batch, out-channel) via scipy, NCHW/OIHW."""
    batch, in_ch = x.shape[0], x.shape[1]
    out_ch = w.shape[0]
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    rows = []
    for n in range(batch):
        channels = []
        for oc in range(out_ch):
            acc = None
            for ic in range(in_ch):
                corr = signal.correlate2d(
                    padded[n, ic], w[oc, ic], mode="valid")
                acc = corr if acc is None else acc + corr
            channels.append(acc[::stride, ::stride])
        rows.append(np.stack(channels))
    return np.stack(rows).astype(np.float32)


@pytest.mark.parametrize("impl", ["im2col", "direct", "spatial_pack",
                                  "winograd"])
def test_conv_matches_scipy(impl, rng):
    x = rng.standard_normal((2, 3, 10, 10)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    node = make_conv_node(with_bias=False)
    kernel = REGISTRY.get("Conv", impl)
    if not kernel.supports(node, [x.shape, w.shape]):
        pytest.skip(f"{impl} inapplicable")
    actual = kernel.fn([x, w], node, ExecutionContext())[0]
    expected = scipy_conv2d(x, w, stride=1, pad=1)
    np.testing.assert_allclose(actual, expected, rtol=1e-3, atol=1e-4)


@settings(max_examples=15, deadline=None)
@given(
    in_ch=st.integers(1, 3),
    out_ch=st.integers(1, 3),
    size=st.integers(5, 9),
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.integers(1, 2),
)
def test_im2col_matches_scipy_property(in_ch, out_ch, size, kernel, stride):
    if kernel > size:
        return
    rng = np.random.default_rng(size * 100 + kernel)
    x = rng.standard_normal((1, in_ch, size, size)).astype(np.float32)
    w = rng.standard_normal((out_ch, in_ch, kernel, kernel)).astype(np.float32)
    pad = kernel // 2
    node = make_conv_node(kernel=(kernel, kernel), strides=(stride, stride),
                          pads=(pad, pad, pad, pad), with_bias=False)
    actual = REGISTRY.get("Conv", "im2col").fn(
        [x, w], node, ExecutionContext())[0]
    expected = scipy_conv2d(x, w, stride=stride, pad=pad)
    np.testing.assert_allclose(actual, expected, rtol=1e-3, atol=1e-4)

