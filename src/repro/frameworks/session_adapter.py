"""Shared adapter plumbing for frameworks simulated on this runtime."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.backends.backend import Backend
from repro.frameworks.base import FrameworkAdapter, PreparedModel
from repro.models import zoo
from repro.runtime.session import InferenceSession

if TYPE_CHECKING:
    from repro.engine.cache import EngineCache


class SessionModel(PreparedModel):
    """A `PreparedModel` backed by an `InferenceSession`.

    ``per_run_overhead_s`` models constant framework dispatch cost that our
    shared executor cannot express (e.g. a Python-API boundary crossing);
    the built-in simulations keep it at zero — differences come from the
    kernels — but third-party adapters may use it.
    """

    def __init__(self, session: InferenceSession,
                 per_run_overhead_s: float = 0.0) -> None:
        self.session = session
        self.per_run_overhead_s = per_run_overhead_s

    def run(self, x: np.ndarray) -> np.ndarray:
        outputs = self.session.run({"input": x})
        return next(iter(outputs.values()))

    def time(self, x: np.ndarray, repeats: int, warmup: int) -> list[float]:
        return [t + self.per_run_overhead_s
                for t in self.session.time({"input": x}, repeats, warmup)]


class SessionAdapter(FrameworkAdapter):
    """Adapter that runs zoo models through a configured backend."""

    def __init__(
        self,
        name: str,
        display_name: str,
        backend: Backend,
        optimize: bool = True,
    ) -> None:
        self.name = name
        self.display_name = display_name
        self.backend = backend
        self.optimize = optimize

    def prepare(self, model_name: str, batch: int = 1,
                image_size: int | None = None,
                engine_cache: "EngineCache | None" = None) -> SessionModel:
        graph = zoo.build(model_name, batch=batch, image_size=image_size)
        if engine_cache is not None:
            # Warm-start from (and on miss, populate) the engine cache.
            session, _ = engine_cache.session(
                graph, model=model_name, backend=self.backend,
                optimize=self.optimize, batch=batch, image_size=image_size)
        else:
            session = InferenceSession(
                graph, backend=self.backend, optimize=self.optimize)
        return SessionModel(session)
