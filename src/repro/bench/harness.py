"""Generic experiment runner: timed full-network inference with statistics.

This is the "infrastructure to run multiple inference experiments,
evaluating full networks" from the paper's contribution list, shared by the
Figure 2 driver, the sweeps, and the CLI ``bench`` command.

It also hosts the *failure boundary* the whole bench stack shares: partial
failures — unsupported ops, numerically unstable kernels, unavailable
frameworks — are the norm in edge evaluation, so sweeps convert framework
errors into structured :class:`FailureRow`\\ s (with bounded retry) and keep
measuring instead of aborting.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from typing import TYPE_CHECKING, TypeVar

import numpy as np

from repro.backends.backend import Backend
from repro.bench.workloads import model_input
from repro.errors import OrpheusError
from repro.models import zoo
from repro.runtime.profiler import Samples
from repro.runtime.session import InferenceSession

if TYPE_CHECKING:
    from repro.engine.cache import EngineCache

T = TypeVar("T")


@dataclasses.dataclass(frozen=True)
class FailureRow:
    """One configuration a sweep could not measure — and why.

    Mirrors the paper's availability notes (DarkNet ships only the ResNets,
    TF-Lite cannot pin one thread): instead of aborting the sweep, the cell
    is reported as a structured failure.
    """

    label: str          # e.g. "darknet/mobilenet-v1" or "resnet18@batch=4"
    stage: str          # "prepare" | "warmup" | "run"
    error_type: str     # exception class name
    message: str
    attempts: int       # tries consumed (1 = no retry granted/needed)

    def __str__(self) -> str:
        retry = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return (f"FAILED {self.label} [{self.stage}] "
                f"{self.error_type}: {self.message}{retry}")


def run_guarded(
    fn: Callable[[], T],
    label: str,
    stage: str = "run",
    retries: int = 1,
    catch: tuple[type[BaseException], ...] = (OrpheusError,),
    reraise: tuple[type[BaseException], ...] = (),
) -> tuple[T | None, FailureRow | None]:
    """Call ``fn`` inside a failure boundary with bounded retry.

    Returns ``(result, None)`` on success or ``(None, FailureRow)`` once
    ``fn`` has failed ``retries + 1`` times with an exception from
    ``catch``. Exceptions outside ``catch`` (programming errors,
    ``KeyboardInterrupt``) propagate unchanged, as do ``reraise``
    subclasses even when they fall under ``catch`` (used to let expected,
    deterministic unavailability — exclusions — bypass the retry loop).

    Retry accounting is never silent: ``FailureRow.attempts`` is the exact
    number of calls made, and an exception that escapes through ``reraise``
    after earlier retried failures carries the count it consumed as an
    ``attempts_consumed`` attribute — a cell that burned tries before
    turning out to be unavailable still reports every one of them.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            return fn(), None
        except catch as exc:
            if isinstance(exc, reraise):
                # Don't swallow earlier retries: the escaping exception
                # reports how many tries this boundary consumed.
                exc.attempts_consumed = attempts
                raise
            if attempts > retries:
                return None, FailureRow(
                    label=label, stage=stage,
                    error_type=type(exc).__name__, message=str(exc),
                    attempts=attempts)


@dataclasses.dataclass(frozen=True)
class RunStats(Samples):
    """Timing samples for one experiment configuration.

    ``max_abs_err`` is the accuracy proxy: the maximum absolute difference
    of this configuration's outputs against an fp32 reference run on the
    same feeds (``None`` when no reference was requested). Quantized
    backends report it so speedups are never quoted without the numeric
    cost alongside.
    """

    label: str
    times: tuple[float, ...]
    max_abs_err: float | None = None

    def summary(self) -> str:
        text = (f"{self.label}: median {self.median * 1e3:.2f} ms, "
                f"best {self.best * 1e3:.2f} ms, "
                f"stdev {self.stdev * 1e3:.2f} ms over {len(self.times)} runs")
        if self.max_abs_err is not None:
            text += f", max|err| {self.max_abs_err:.3g}"
        return text


def time_model(
    model_name: str,
    backend: "str | Backend" = "orpheus",
    optimize: bool = True,
    repeats: int = 5,
    warmup: int = 1,
    batch: int = 1,
    image_size: int | None = None,
    seed: int = 0,
    deadline_ms: float | None = None,
    memory_budget_bytes: int | None = None,
    accuracy_vs: "str | Backend | None" = None,
    engine_cache: "EngineCache | None" = None,
) -> RunStats:
    """Build, prepare, and time a zoo model end to end.

    The bench stack's one cell runner: zoo graph, session (warm-started
    from ``engine_cache`` when given, populating it on a miss),
    :func:`~repro.bench.workloads.model_input` feed, ``session.time``.

    With a memory budget, admission control runs before anything executes
    and an over-budget model raises :class:`~repro.errors.MemoryBudgetError`,
    which the sweep-level failure boundary converts into a
    :class:`FailureRow`.

    ``accuracy_vs`` names a reference backend (typically ``"orpheus"``
    when timing ``"int8"``): after timing, both sessions run once on the
    same input and the max absolute output difference is reported as
    :attr:`RunStats.max_abs_err`. The reference runs without the memory
    budget — it is a numeric yardstick, not a competitor.
    """
    backend_name = backend if isinstance(backend, str) else backend.name
    graph = zoo.build(model_name, batch=batch, image_size=image_size, seed=seed)
    if engine_cache is not None:
        session, _ = engine_cache.session(
            graph, model=model_name, backend=backend, optimize=optimize,
            batch=batch, image_size=image_size,
            seed=seed, memory_budget_bytes=memory_budget_bytes)
    else:
        session = InferenceSession(
            graph, backend=backend, optimize=optimize,
            memory_budget_bytes=memory_budget_bytes)
    x = model_input(model_name, batch=batch, image_size=image_size, seed=seed)
    times = session.time(
        {"input": x}, repeats=repeats, warmup=warmup, deadline_ms=deadline_ms)
    max_abs_err: float | None = None
    if accuracy_vs is not None:
        reference = InferenceSession(
            graph, backend=accuracy_vs, optimize=optimize)
        got = session.run({"input": x})
        want = reference.run({"input": x})
        max_abs_err = max(
            (float(np.max(np.abs(got[name].astype(np.float64)
                                 - want[name].astype(np.float64))))
             for name in want), default=0.0)
    return RunStats(
        label=f"{model_name}/{backend_name}", times=tuple(times),
        max_abs_err=max_abs_err)
