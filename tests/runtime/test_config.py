"""RuntimeConfig: defaults, validation, replace."""

import pytest

from repro.config import RuntimeConfig


class TestRuntimeConfig:
    def test_defaults_match_paper_setting(self):
        config = RuntimeConfig()
        assert config.threads == 1
        assert config.optimize
        assert not config.validate_kernels

    def test_replace_creates_new_object(self):
        base = RuntimeConfig()
        changed = base.replace(threads=4)
        assert changed.threads == 4
        assert base.threads == 1

    def test_invalid_threads_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            RuntimeConfig(threads=0)
        with pytest.raises(ValueError):
            RuntimeConfig().replace(threads=-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            RuntimeConfig().threads = 2  # type: ignore[misc]

