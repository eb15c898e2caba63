"""Convolution kernels: all implementations agree with the loop reference.

This is the paper's "suite of unit tests to ensure correctness of all
operations, and to provide ready-made assistance in the development and
integration of new backends": any new conv kernel added to the registry is
automatically picked up and checked against the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.context import ExecutionContext
from repro.kernels.registry import REGISTRY
from tests.helpers import conv_reference_check, make_conv_node


def all_conv_impls():
    return [impl.name for impl in REGISTRY.implementations("Conv")]


def run_impl(name, inputs, node):
    impl = REGISTRY.get("Conv", name)
    shapes = [np.asarray(i).shape for i in inputs]
    if not impl.supports(node, shapes):
        pytest.skip(f"{name} not applicable")
    return impl.fn(list(inputs), node, ExecutionContext())[0]


@pytest.fixture
def reference():
    return REGISTRY.get("Conv", "reference")


class TestAgainstReference:
    """Every registered implementation matches the 7-loop oracle."""

    @pytest.mark.parametrize("impl_name", all_conv_impls())
    def test_basic_3x3(self, impl_name, rng):
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        node = make_conv_node()
        conv_reference_check(impl_name, [x, w, b], node)

    @pytest.mark.parametrize("impl_name", all_conv_impls())
    def test_1x1_pointwise(self, impl_name, rng):
        x = rng.standard_normal((2, 6, 5, 5)).astype(np.float32)
        w = rng.standard_normal((4, 6, 1, 1)).astype(np.float32)
        node = make_conv_node(kernel=(1, 1), pads=(0, 0, 0, 0), with_bias=False)
        conv_reference_check(impl_name, [x, w], node)

    @pytest.mark.parametrize("impl_name", all_conv_impls())
    def test_stride_2(self, impl_name, rng):
        x = rng.standard_normal((1, 3, 9, 9)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        node = make_conv_node(strides=(2, 2), pads=(1, 1, 1, 1), with_bias=False)
        conv_reference_check(impl_name, [x, w], node)

    @pytest.mark.parametrize("impl_name", all_conv_impls())
    def test_asymmetric_kernel_and_pads(self, impl_name, rng):
        x = rng.standard_normal((1, 2, 7, 9)).astype(np.float32)
        w = rng.standard_normal((3, 2, 1, 5)).astype(np.float32)
        node = make_conv_node(kernel=(1, 5), pads=(0, 2, 0, 2), with_bias=False)
        conv_reference_check(impl_name, [x, w], node)

    @pytest.mark.parametrize("impl_name", all_conv_impls())
    def test_dilation_2(self, impl_name, rng):
        x = rng.standard_normal((1, 2, 10, 10)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        node = make_conv_node(dilations=(2, 2), pads=(2, 2, 2, 2), with_bias=False)
        conv_reference_check(impl_name, [x, w], node)

    @pytest.mark.parametrize("impl_name", all_conv_impls())
    def test_depthwise(self, impl_name, rng):
        x = rng.standard_normal((1, 6, 8, 8)).astype(np.float32)
        w = rng.standard_normal((6, 1, 3, 3)).astype(np.float32)
        b = rng.standard_normal(6).astype(np.float32)
        node = make_conv_node(group=6)
        conv_reference_check(impl_name, [x, w, b], node)

    @pytest.mark.parametrize("impl_name", all_conv_impls())
    def test_grouped_not_depthwise(self, impl_name, rng):
        x = rng.standard_normal((1, 8, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        node = make_conv_node(group=2, with_bias=False)
        conv_reference_check(impl_name, [x, w], node)

    @pytest.mark.parametrize("impl_name", all_conv_impls())
    def test_asymmetric_onnx_pads(self, impl_name, rng):
        """ONNX pads allow begin != end."""
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        node = make_conv_node(pads=(0, 1, 2, 1), with_bias=False)
        conv_reference_check(impl_name, [x, w], node)

    @pytest.mark.parametrize("impl_name", all_conv_impls())
    def test_batch_greater_than_one(self, impl_name, rng):
        x = rng.standard_normal((3, 2, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        node = make_conv_node(with_bias=False)
        conv_reference_check(impl_name, [x, w], node)


class TestFusedActivation:
    @pytest.mark.parametrize("impl_name", all_conv_impls())
    def test_fused_relu_clamps_negatives(self, impl_name, rng):
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        plain = make_conv_node(with_bias=False)
        fused = make_conv_node(with_bias=False,
                               extra_attrs={"activation": "relu"})
        base = run_impl(impl_name, [x, w], plain)
        out = run_impl(impl_name, [x, w], fused)
        np.testing.assert_allclose(out, np.maximum(base, 0), rtol=1e-5, atol=1e-5)
        assert (out >= 0).all()

    @pytest.mark.parametrize("impl_name", all_conv_impls())
    def test_fused_relu6_clamps_both_sides(self, impl_name, rng):
        x = (10 * rng.standard_normal((1, 2, 6, 6))).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        fused = make_conv_node(with_bias=False,
                               extra_attrs={"activation": "relu6"})
        out = run_impl(impl_name, [x, w], fused)
        assert (out >= 0).all() and (out <= 6).all()

    def test_unknown_activation_rejected(self, rng):
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        w = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        node = make_conv_node(with_bias=False,
                              extra_attrs={"activation": "gelu"})
        with pytest.raises(ValueError, match="unknown fused activation"):
            run_impl("im2col", [x, w], node)


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(1, 2),
    in_ch=st.integers(1, 4),
    out_ch=st.integers(1, 4),
    size=st.integers(4, 10),
    kernel=st.sampled_from([1, 2, 3]),
    stride=st.integers(1, 2),
    pad=st.integers(0, 2),
    impl_name=st.sampled_from(["im2col", "im2col_loops", "direct",
                               "spatial_pack"]),
)
def test_conv_property_grid(batch, in_ch, out_ch, size, kernel, stride, pad,
                            impl_name):
    """Random geometry: vectorised kernels match the loop reference."""
    rng = np.random.default_rng(batch * 1000 + size)
    x = rng.standard_normal((batch, in_ch, size, size)).astype(np.float32)
    w = rng.standard_normal((out_ch, in_ch, kernel, kernel)).astype(np.float32)
    node = make_conv_node(
        kernel=(kernel, kernel), strides=(stride, stride),
        pads=(pad, pad, pad, pad), with_bias=False)
    conv_reference_check(impl_name, [x, w], node)


@settings(max_examples=15, deadline=None)
@given(
    channels=st.integers(1, 6),
    size=st.integers(5, 12),
    stride=st.integers(1, 2),
)
def test_depthwise_property_grid(channels, size, stride):
    rng = np.random.default_rng(channels * 31 + size)
    x = rng.standard_normal((1, channels, size, size)).astype(np.float32)
    w = rng.standard_normal((channels, 1, 3, 3)).astype(np.float32)
    node = make_conv_node(strides=(stride, stride), group=channels,
                          with_bias=False)
    conv_reference_check("direct_dw", [x, w], node)
    conv_reference_check("perchannel_gemm_dw", [x, w], node)


# -- direct_dw: generated geometry, the block loop, derived caches -----------------


def _dw_inputs(rng, batch, channels, in_hw, kernel, with_bias, dtype):
    x = rng.standard_normal((batch, channels, *in_hw)).astype(dtype)
    w = rng.standard_normal((channels, 1, *kernel)).astype(dtype)
    if not with_bias:
        return [x, w]
    return [x, w, rng.standard_normal(channels).astype(dtype)]


@settings(max_examples=120, deadline=None)
@given(
    batch=st.integers(1, 3),
    channels=st.integers(1, 5),
    kernel=st.sampled_from([(1, 1), (3, 3), (5, 5), (3, 5)]),
    strides=st.sampled_from([(1, 1), (2, 2), (1, 2), (2, 1)]),
    dilations=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    pads=st.tuples(*[st.integers(0, 2)] * 4),     # top, left, bottom, right
    slack=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    with_bias=st.booleans(),
    activation=st.sampled_from(["", "relu", "relu6"]),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_direct_dw_geometry_battery(batch, channels, kernel, strides,
                                    dilations, pads, slack, with_bias,
                                    activation, dtype):
    """Both lowerings over generated geometry, against the loop reference.

    ``slack == (0, 0)`` is the smallest legal input: the padded plane is
    exactly one dilated kernel, so ``OH == OW == 1``.
    """
    in_hw = tuple(
        max(1, d * (k - 1) + 1 - before - after) + extra
        for k, d, before, after, extra in zip(
            kernel, dilations, pads[:2], pads[2:], slack))
    rng = np.random.default_rng(batch * 97 + channels * 13 + sum(in_hw))
    inputs = _dw_inputs(rng, batch, channels, in_hw, kernel, with_bias, dtype)
    node = make_conv_node(
        kernel=kernel, strides=strides, pads=pads, dilations=dilations,
        group=channels, with_bias=with_bias,
        extra_attrs={"activation": activation} if activation else None)
    conv_reference_check("direct_dw", inputs, node)


def test_direct_dw_unknown_activation_rejected(rng):
    inputs = _dw_inputs(rng, 1, 2, (4, 4), (3, 3), False, np.float32)
    node = make_conv_node(group=2, with_bias=False,
                          extra_attrs={"activation": "gelu"})
    with pytest.raises(ValueError, match="unknown fused activation"):
        run_impl("direct_dw", inputs, node)


class TestDirectDwBlocking:
    """The channel-block loop: any block size yields the same bits."""

    @staticmethod
    def run_counting_blocks(monkeypatch, block_floats, inputs, node):
        """(output, blocks executed) with ``_BLOCK_FLOATS`` forced."""
        from repro.kernels import depthwise
        finalize = depthwise.finalize_conv
        calls = []

        def spy(out, *epilogue):            # runs once per channel block
            calls.append(out.shape[0])
            return finalize(out, *epilogue)

        with monkeypatch.context() as patch:
            patch.setattr(depthwise, "finalize_conv", spy)
            if block_floats is not None:
                patch.setattr(depthwise, "_BLOCK_FLOATS", block_floats)
            out = run_impl("direct_dw", inputs, node)
        return out, calls

    @pytest.mark.parametrize("strides", [(1, 1), (2, 2)],
                             ids=["flat-rows", "windowed"])
    def test_blocked_equals_unblocked_bitwise(self, monkeypatch, rng, strides):
        inputs = _dw_inputs(rng, 2, 7, (9, 10), (3, 3), True, np.float32)
        node = make_conv_node(strides=strides, group=7,
                              extra_attrs={"activation": "relu"})
        whole, blocks = self.run_counting_blocks(
            monkeypatch, None, inputs, node)
        assert blocks == [7, 7]                    # one block per image
        conv_reference_check("direct_dw", inputs, node)

        one, blocks = self.run_counting_blocks(monkeypatch, 1, inputs, node)
        assert blocks == [1] * 14
        np.testing.assert_array_equal(one, whole)

        # A block that does not divide C: find the budget that gives 3.
        for block_floats in range(64, 1 << 14, 64):
            uneven, blocks = self.run_counting_blocks(
                monkeypatch, block_floats, inputs, node)
            if blocks == [3, 3, 1, 3, 3, 1]:
                break
        else:
            pytest.fail("no _BLOCK_FLOATS in range gives a block of 3")
        np.testing.assert_array_equal(uneven, whole)


# -- im2col: generated geometry, what one call allocates, the shared workspace ----


@settings(max_examples=120, deadline=None)
@given(
    batch=st.integers(1, 3),
    group_kind=st.sampled_from(["1", "2", "C"]),
    channels=st.integers(1, 3),          # per group, except group == C
    out_per_group=st.integers(1, 2),
    kernel=st.sampled_from([(1, 1), (3, 3), (5, 5), (3, 5), (7, 7),
                            (1, 7), (7, 1)]),
    strides=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    dilations=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    pads=st.tuples(*[st.integers(0, 2)] * 4),     # top, left, bottom, right
    slack=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    with_bias=st.booleans(),
    activation=st.sampled_from(["", "relu", "relu6"]),
    dtype=st.sampled_from([np.float32, np.float64]),
    blocked=st.booleans(),
    with_residual=st.booleans(),
)
def test_im2col_geometry_battery(batch, group_kind, channels, out_per_group,
                                 kernel, strides, dilations, pads, slack,
                                 with_bias, activation, dtype, blocked,
                                 with_residual):
    """Generated geometry against the loop reference, on BLAS and on the
    rerouted blocked GEMM the DarkNet simulation uses, with and without a
    fused residual (whose bias slot is then empty when there is no bias);
    and bitwise equal to ``im2col_loops`` on the same GEMM.

    ``slack == (0, 0)`` is the smallest legal input (``OH == OW == 1``
    unless the pads alone exceed the dilated kernel). Row-padded planes
    read a neighbouring row's pixel for every tap left or right of the
    image until the edge masks zero it: a tolerance check would let a
    missed or misplaced mask through, bitwise equality does not. A padded
    1x1 is lowered too.
    """
    from repro.kernels.gemm import gemm_blocked
    group = {"1": 1, "2": 2, "C": channels}[group_kind]
    in_channels = channels if group_kind == "C" else group * channels
    in_hw = tuple(
        max(1, d * (k - 1) + 1 - before - after) + extra
        for k, d, before, after, extra in zip(
            kernel, dilations, pads[:2], pads[2:], slack))
    rng = np.random.default_rng(batch * 97 + in_channels * 13 + sum(in_hw))
    x = rng.standard_normal((batch, in_channels, *in_hw)).astype(dtype)
    w = rng.standard_normal((group * out_per_group, in_channels // group,
                             *kernel)).astype(dtype)
    inputs = [x, w]
    if with_bias:
        inputs.append(rng.standard_normal(group * out_per_group).astype(dtype))
    node = make_conv_node(
        kernel=kernel, strides=strides, pads=pads, dilations=dilations,
        group=group, with_bias=with_bias,
        extra_attrs={"activation": activation} if activation else None)
    if with_residual:
        _add_residual(inputs, node, rng)
    gemm = gemm_blocked if blocked else None
    conv_reference_check("im2col", inputs, node,
                         ctx=ExecutionContext(gemm=gemm))
    lowered, looped = (REGISTRY.get("Conv", name).fn(
        list(inputs), node, ExecutionContext(gemm=gemm))[0]
        for name in ("im2col", "im2col_loops"))
    assert lowered.tobytes() == looped.tobytes()


def _add_residual(inputs, node, rng):
    """Give ``node`` a fused residual of its output's shape (bias slot
    ``""`` and an empty array if it has no bias, as the executor feeds it)."""
    from repro.kernels.common import conv_params
    params = conv_params(node, inputs[0].shape, inputs[1].shape)
    if len(inputs) == 2:
        inputs.append(np.empty(0, dtype=inputs[0].dtype))
        node.inputs.append("")
    inputs.append(rng.standard_normal(
        (params.batch, params.out_channels, params.out_h, params.out_w)
    ).astype(inputs[0].dtype))
    node.inputs.append("r")


#: (x shape, weight shape, node geometry): a padded 3x3 every group-1 impl
#: (winograd included) takes, a strided 1x1 the unpadded im2col path
#: lowers from the image itself, and a depthwise 3x3 for the dw impls.
_RESIDUAL_GEOMETRIES = {
    "3x3": ((2, 3, 7, 6), (4, 3, 3, 3), {}),
    "1x1-stride-2": ((2, 3, 7, 6), (4, 3, 1, 1),
                     {"kernel": (1, 1), "strides": (2, 2), "pads": (0, 0, 0, 0)}),
    "depthwise": ((2, 5, 7, 6), (5, 1, 3, 3), {"group": 5}),
}


@pytest.mark.parametrize("activation", ["", "relu", "relu6"])
@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("geometry", list(_RESIDUAL_GEOMETRIES))
@pytest.mark.parametrize("impl_name", all_conv_impls())
def test_every_conv_impl_honours_a_fused_residual(impl_name, geometry, with_bias,
                                                  activation):
    """``relu(conv + bias + residual)`` on every registered fp32 Conv impl
    against the loop reference, and bitwise the impl's own unfused output
    plus the residual, then the activation (the unfused graph's order)."""
    x_shape, w_shape, geometry_attrs = _RESIDUAL_GEOMETRIES[geometry]
    rng = np.random.default_rng(11)
    inputs = [rng.standard_normal(x_shape).astype(np.float32),
              rng.standard_normal(w_shape).astype(np.float32)]
    if with_bias:
        inputs.append(rng.standard_normal(w_shape[0]).astype(np.float32))
    node = make_conv_node(
        with_bias=with_bias, **geometry_attrs,
        extra_attrs={"activation": activation} if activation else None)
    plain = make_conv_node(with_bias=with_bias, **geometry_attrs)
    unfused = run_impl(impl_name, list(inputs), plain)
    _add_residual(inputs, node, rng)
    conv_reference_check(impl_name, inputs, node)
    expected = unfused + inputs[3]
    if activation:
        expected = (np.maximum(expected, 0) if activation == "relu"
                    else np.clip(expected, 0, 6))
    assert run_impl(impl_name, inputs, node).tobytes() == expected.tobytes()


def _wrn_im2col_convs():
    """``(inputs, node)`` for each distinct im2col conv geometry of wrn-40-2."""
    from repro.ir.shape_inference import infer_shapes
    from repro.kernels.common import conv_params
    from repro.models import zoo
    from repro.runtime.session import InferenceSession

    session = InferenceSession(zoo.build("wrn-40-2"), backend="orpheus",
                               threads=1)
    graph, plan = session.graph, session.kernel_plan()
    types = infer_shapes(graph)
    rng = np.random.default_rng(0)
    cases = {}
    for node in graph.nodes:
        if plan.get(node.name) != "im2col":
            continue
        x_shape = types[node.inputs[0]][0]
        # Weight and bias are initializers; an absent bias is fed as the
        # executor feeds it, and a fused residual as a fresh activation.
        operands = [
            graph.initializers[name] if name in graph.initializers
            else np.empty(0, np.float32) if not name
            else rng.standard_normal(types[name][0]).astype(np.float32)
            for name in node.inputs[1:]]
        key = (conv_params(node, x_shape, operands[0].shape),
               tuple(bool(name) for name in node.inputs),
               node.attrs.get_str("activation", ""))
        if key not in cases:
            x = rng.standard_normal(x_shape).astype(np.float32)
            cases[key] = ([x, *operands], node)
    return list(cases.values())


class TestIm2colWorkspace:
    """What ``im2col`` allocates and keeps, counted, not timed."""

    def test_warm_call_allocates_only_its_output(self):
        """Pad, lowering and product live in the workspace or in ``out``.

        The 64 KiB allowance covers numpy's copy-iterator buffer (~32 KB
        measured). The allocate-per-call kernel peaked at 2.0-12.6x the
        output on these shapes.
        """
        import tracemalloc

        from repro.kernels.gemm import gemm_blas
        impl = REGISTRY.get("Conv", "im2col")
        cases = _wrn_im2col_convs()
        assert len(cases) >= 8
        for inputs, node in cases:
            ctx = ExecutionContext(gemm=gemm_blas)   # as the executor sets it
            impl.fn(inputs, node, ctx)
            tracemalloc.start()
            try:
                out = impl.fn(inputs, node, ctx)[0]
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= out.nbytes + 64 * 1024, (
                node.name, inputs[0].shape, peak, out.nbytes)

    def test_shared_workspace_carries_nothing_between_convs(self, rng):
        """A padded conv, then a depthwise and a larger conv that overwrite
        its region of the workspace, then the first again: bitwise equal
        to the first conv on a fresh context."""
        im2col = REGISTRY.get("Conv", "im2col")
        first = [rng.standard_normal((2, 3, 7, 9)).astype(np.float32),
                 rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
                 rng.standard_normal(4).astype(np.float32)]
        first_node = make_conv_node(pads=(1, 2, 2, 1),
                                    extra_attrs={"activation": "relu"})
        dw_inputs = [10 + rng.random((1, 6, 12, 12)).astype(np.float32),
                     rng.random((6, 1, 3, 3)).astype(np.float32)]
        dw_node = make_conv_node(group=6, with_bias=False)
        other = [10 + rng.random((1, 5, 12, 12)).astype(np.float32),
                 rng.standard_normal((3, 5, 5, 5)).astype(np.float32)]
        other_node = make_conv_node(kernel=(5, 5), pads=(0, 0, 0, 0),
                                    with_bias=False)

        ctx = ExecutionContext()
        before = im2col.fn(first, first_node, ctx)[0]
        REGISTRY.get("Conv", "direct_dw").fn(dw_inputs, dw_node, ctx)
        im2col.fn(other, other_node, ctx)
        again = im2col.fn(first, first_node, ctx)[0]
        fresh = im2col.fn(first, first_node, ExecutionContext())[0]
        assert sorted(key[0] for key in ctx.cache) == ["dw_pack", "workspace"]
        assert before.tobytes() == fresh.tobytes()
        assert again.tobytes() == fresh.tobytes()


class TestWeightDerivedCaches:
    """A cache entry derived from a weight must never outlive that weight."""

    @staticmethod
    def two_weights_one_context(impl_name, group, weight_shape):
        impl = REGISTRY.get("Conv", impl_name)
        oracle = REGISTRY.get("Conv", "im2col")
        node = make_conv_node(group=group, with_bias=False)
        ctx = ExecutionContext()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        for scale in (1.0, 10.0):
            # The first weight dies before the second is built, so CPython
            # is free to hand the second one the same id().
            weight = (scale * rng.standard_normal(weight_shape)).astype(
                np.float32)
            got = impl.fn([x, weight], node, ctx)[0]
            want = oracle.fn([x, weight], node, ExecutionContext())[0]
            np.testing.assert_allclose(got, want, rtol=2e-4, atol=2e-4)
            del weight, got, want
        return ctx

    def test_winograd_filter_transform_follows_the_weight(self):
        ctx = self.two_weights_one_context("winograd", 1, (4, 4, 3, 3))
        assert [key[0] for key in ctx.cache] == ["winograd_u"]

    def test_direct_dw_pack_follows_the_weight(self):
        ctx = self.two_weights_one_context("direct_dw", 4, (4, 1, 3, 3))
        assert sorted(key[0] for key in ctx.cache) == ["dw_pack", "workspace"]

    def test_derived_serves_only_identical_sources(self):
        ctx = ExecutionContext()
        a, b = np.zeros(2), np.zeros(2)
        built = []

        def compute():
            built.append(len(built))
            return built[-1]

        assert ctx.derived("k", (a, None), compute) == 0
        assert ctx.derived("k", (a, None), compute) == 0    # hit
        assert ctx.derived("k", (b, None), compute) == 1    # equal, not same
        assert ctx.derived("k", (b, a), compute) == 2       # bias appeared
        assert ctx.derived("k", (b,), compute) == 3
        assert list(ctx.cache) == ["k"]


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_cheapened_graph_matches_reference_backend(seed):
    """Whole graph: the dense convs ``cheapen_convolutions`` turns into
    depthwise + pointwise pairs run ``direct_dw`` on the default backend
    and agree with the loop ``reference`` backend."""
    from repro.passes import cheapen_convolutions
    from repro.runtime.session import InferenceSession
    from repro.testing import random_ir_graph

    graph, report = cheapen_convolutions(random_ir_graph(seed))
    assert report.replaced >= 1
    session = InferenceSession(graph, backend="orpheus", threads=1)
    assert sum(impl == "direct_dw"
               for impl in session.kernel_plan().values()) >= report.replaced
    feed = {"input": np.random.default_rng(seed).standard_normal(
        (1, 3, 16, 16)).astype(np.float32)}
    got = session.run(feed)
    want = InferenceSession(graph, backend="reference", threads=1).run(feed)
    for name in want:
        np.testing.assert_allclose(got[name], want[name],
                                   rtol=2e-4, atol=2e-4)
