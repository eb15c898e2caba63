"""Public API surface: every documented export exists and imports cleanly."""

import importlib

import pytest

_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.backends",
    "repro.bench",
    "repro.frameworks",
    "repro.frontend",
    "repro.ir",
    "repro.kernels",
    "repro.models",
    "repro.onnx",
    "repro.ops",
    "repro.passes",
    "repro.quant",
    "repro.runtime",
    "repro.tensor",
]


class TestExports:
    @pytest.mark.parametrize("package", _PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", None)
        assert exported, f"{package} must declare __all__"
        for name in exported:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", _PACKAGES)
    def test_all_sorted_and_unique(self, package):
        module = importlib.import_module(package)
        exported = list(module.__all__)
        assert len(exported) == len(set(exported)), f"{package}: duplicates"

    def test_error_hierarchy_rooted(self):
        import repro.errors as errors
        from repro.errors import OrpheusError
        for name in dir(errors):
            obj = getattr(errors, name)
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and not issubclass(obj, Warning)  # warnings root at Warning
                    and obj is not OrpheusError
                    and obj.__module__ == "repro.errors"):
                assert issubclass(obj, OrpheusError), name

    def test_version_string(self):
        import repro
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_top_level_convenience_imports(self):
        from repro import (  # noqa: F401
            Backend,
            DType,
            Graph,
            GraphBuilder,
            InferenceSession,
        )
        from repro import vision  # submodule import path used by examples
        assert hasattr(vision, "preprocess_for")
