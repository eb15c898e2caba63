"""Backend: selection policy, overrides, registration API."""

import pytest

from repro.backends import (
    Backend,
    get_backend,
    list_backends,
    register_backend,
    unregister_backend,
)
from repro.errors import BackendError
from tests.helpers import make_conv_node


SHAPES_3X3 = [(1, 4, 8, 8), (8, 4, 3, 3), (8,)]
SHAPES_DW = [(1, 8, 8, 8), (8, 1, 3, 3), (8,)]


class TestSelection:
    def test_orpheus_picks_im2col_for_standard_conv(self):
        backend = get_backend("orpheus")
        impl = backend.select(make_conv_node(), SHAPES_3X3)
        assert impl.name == "im2col"

    def test_orpheus_picks_direct_dw_for_depthwise(self):
        backend = get_backend("orpheus")
        impl = backend.select(make_conv_node(group=8), SHAPES_DW)
        assert impl.name == "direct_dw"

    def test_winograd_backend_falls_back_on_strided_conv(self):
        backend = get_backend("winograd")
        strided = make_conv_node(strides=(2, 2))
        assert backend.select(strided, SHAPES_3X3).name == "im2col"
        assert backend.select(make_conv_node(), SHAPES_3X3).name == "winograd"

    def test_node_override_wins(self):
        backend = get_backend("orpheus").with_overrides({"conv": "direct"})
        impl = backend.select(make_conv_node(name="conv"), SHAPES_3X3)
        assert impl.name == "direct"

    def test_inapplicable_override_rejected(self):
        backend = get_backend("orpheus").with_overrides({"conv": "winograd"})
        strided = make_conv_node(name="conv", strides=(2, 2))
        with pytest.raises(BackendError, match="not applicable"):
            backend.select(strided, SHAPES_3X3)

    def test_with_preferences(self):
        backend = get_backend("orpheus").with_preferences(
            Conv=("direct", "im2col"))
        assert backend.select(make_conv_node(), SHAPES_3X3).name == "direct"

    def test_reference_backend_uses_experimental_kernels(self):
        backend = get_backend("reference")
        assert backend.select(make_conv_node(), SHAPES_3X3).name == "reference"

    def test_unknown_gemm_rejected(self):
        with pytest.raises(BackendError, match="unknown gemm"):
            Backend(name="bad", gemm="magic")


class TestRegistry:
    def test_builtins_present(self):
        names = {b.name for b in list_backends()}
        assert {"orpheus", "reference", "direct", "spatial_pack",
                "winograd"} <= names

    def test_register_and_unregister(self):
        backend = Backend(name="thirdparty-test",
                          description="plugin example")
        register_backend(backend)
        assert get_backend("thirdparty-test") is backend
        unregister_backend("thirdparty-test")
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("thirdparty-test")

    def test_duplicate_registration_rejected(self):
        backend = Backend(name="dup-test")
        register_backend(backend)
        try:
            with pytest.raises(BackendError, match="already registered"):
                register_backend(Backend(name="dup-test"))
            register_backend(Backend(name="dup-test"), replace=True)
        finally:
            unregister_backend("dup-test")

    def test_unregister_missing_rejected(self):
        with pytest.raises(BackendError, match="not registered"):
            unregister_backend("never-existed")

    def test_unknown_backend_lists_available(self):
        with pytest.raises(BackendError, match="orpheus"):
            get_backend("no-such-backend")
