"""Process worker main loop, driven in-process over byte streams."""

import io

import pytest

from repro.serve.protocol import read_frame, write_frame
from repro.serve.worker import EXIT_INIT_FAILED, serve_forever

#: The init spec the supervisor sends for a ``@loopback`` pool.
LOOPBACK_SPEC = {
    "model": "@loopback",
    "backends": ["orpheus"],
    "batch": 1,
    "image_size": None,
    "seed": 0,
    "engine_cache": None,
    "fault_spec": None,
    "fault_seed": 0,
    "session_kwargs": {},
    "loopback_delay_s": 0.0,
}


@pytest.mark.parametrize(
    "key", ["model", "backends", "batch", "loopback_delay_s", "fault_spec"])
def test_a_missing_spec_key_fails_init_and_names_the_key(key):
    """The worker holds no defaults of its own: a spec without a key the
    supervisor always sends is a failed init, not a silent fallback."""
    spec = {k: v for k, v in LOOPBACK_SPEC.items() if k != key}
    stdin, stdout = io.BytesIO(), io.BytesIO()
    write_frame(stdin, {"kind": "init", "spec": spec})
    stdin.seek(0)

    assert serve_forever(stdin, stdout) == EXIT_INIT_FAILED
    stdout.seek(0)
    header, _ = read_frame(stdout)
    assert header["kind"] == "err" and header["fatal"]
    assert key in header["message"]
    assert read_frame(stdout) is None  # no hello followed
