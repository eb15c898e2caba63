"""Framework adapter interface.

The paper's evaluation compares Orpheus against TF-Lite, PyTorch, DarkNet
and TVM on the same models. We cannot ship those frameworks (and the paper's
own HiKey 970 numbers are not reproducible without the board), so each
comparator is *simulated*: an adapter that runs the same model through this
runtime but configured with the algorithmic choices and limitations the
paper attributes to that framework (see DESIGN.md, "Substitutions").

Adapters share one interface so the benchmark harness can iterate them
uniformly; unavailability (DarkNet's missing models, TF-Lite's thread
pinning) is expressed by raising
:class:`~repro.errors.FrameworkUnavailableError` — exactly the situations
the paper reports as exclusions from Figure 2.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import FrameworkUnavailableError
from repro.runtime.profiler import Samples

if TYPE_CHECKING:
    from repro.engine.cache import EngineCache


class FrameworkAdapter(abc.ABC):
    """One framework under evaluation."""

    #: registry key, e.g. ``"tvm"``
    name: str = ""
    #: label used in tables, e.g. ``"TVM (sim)"``
    display_name: str = ""

    @abc.abstractmethod
    def prepare(self, model_name: str, batch: int = 1,
                image_size: int | None = None,
                engine_cache: "EngineCache | None" = None) -> "PreparedModel":
        """Load + ready a zoo model for repeated inference.

        ``engine_cache`` warm-starts the prepare from a compiled engine
        (populating the cache on a miss); an adapter with a bespoke
        prepare path may accept it and still prepare cold.

        Raises:
            FrameworkUnavailableError: the framework cannot run this
                workload (missing model, no single-thread run, ...).
        """


class PreparedModel(abc.ABC):
    """A model readied by an adapter, exposing timed execution."""

    @abc.abstractmethod
    def run(self, x: np.ndarray) -> np.ndarray:
        """Single inference; returns the output tensor."""

    @abc.abstractmethod
    def time(self, x: np.ndarray, repeats: int, warmup: int) -> list[float]:
        """Wall-clock seconds for each of ``repeats`` runs after ``warmup``
        untimed ones, any modelled per-run overhead included."""


@dataclasses.dataclass(frozen=True)
class Measurement(Samples):
    """Timing result for one (framework, model) cell of Figure 2."""

    framework: str
    model: str
    times: tuple[float, ...]

    def __repr__(self) -> str:
        return (f"Measurement({self.framework}/{self.model}: "
                f"{self.median * 1e3:.1f} ms median of {len(self.times)})")


_ADAPTERS: dict[str, FrameworkAdapter] = {}


def register_adapter(adapter: FrameworkAdapter) -> FrameworkAdapter:
    if adapter.name in _ADAPTERS:
        raise FrameworkUnavailableError(
            f"adapter {adapter.name!r} already registered")
    _ADAPTERS[adapter.name] = adapter
    return adapter


def get_adapter(name: str) -> FrameworkAdapter:
    try:
        return _ADAPTERS[name]
    except KeyError:
        raise FrameworkUnavailableError(
            f"unknown framework {name!r}; registered: {sorted(_ADAPTERS)}"
        ) from None


def list_adapters() -> list[FrameworkAdapter]:
    return [_ADAPTERS[name] for name in sorted(_ADAPTERS)]
