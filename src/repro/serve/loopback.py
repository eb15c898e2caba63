"""``@loopback``: a diagnostic model for exercising the serving machinery.

Supervision, protocol, chaos, and drain behaviour are properties of the
*serving* layer, not of any particular network — and spawning four worker
processes that each compile a CNN makes those tests and smoke jobs pay
seconds for nothing. Passing the model name ``@loopback`` to
:class:`~repro.serve.pool.SessionPool`, ``InferenceService``, the
``serve`` / ``serve-chaos`` CLI verbs, or a worker spec builds this
trivial session instead: output is ``input * 2`` under a configurable
service delay. The arithmetic is checkable end to end (the supervisor
tests assert the doubled values survive the pipe round-trip) while
startup stays in milliseconds.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

#: Model-name sentinel that builds a LoopbackSession instead of a graph.
LOOPBACK_MODEL = "@loopback"

#: Per-sample input shape the loopback model accepts.
LOOPBACK_SAMPLE_SHAPE = (4,)

LOOPBACK_INPUT = "input"
LOOPBACK_OUTPUT = "out"


class LoopbackSession:
    """Session double: ``out = input * 2`` after ``delay_s`` of "work".

    Implements the slice of ``InferenceSession`` the serving layer uses
    (``run`` with a ``deadline_ms`` keyword, and a ``graph`` shim exposing
    the input shape) so it can stand behind both the threaded pool and a
    process worker without special-casing.
    """

    def __init__(self, backend: str = "orpheus", batch: int = 1,
                 delay_s: float = 0.0) -> None:
        self.backend = backend
        self.delay_s = delay_s
        shape = (batch, *LOOPBACK_SAMPLE_SHAPE)
        self.graph = SimpleNamespace(
            inputs=[SimpleNamespace(name=LOOPBACK_INPUT, shape=shape)],
            input_names=[LOOPBACK_INPUT])

    def run(self, feeds: dict, deadline_ms: float | None = None) -> dict:
        if self.delay_s:
            time.sleep(self.delay_s)
        batch = np.asarray(next(iter(feeds.values())))
        return {LOOPBACK_OUTPUT: batch * 2.0}
