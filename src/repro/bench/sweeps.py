"""Parameter sweeps: latency vs batch size and input resolution.

The classic edge-deployment questions the paper's experiment infrastructure
exists to answer: how does inference time scale when frames are batched,
and what does lowering the camera resolution buy? Each sweep prepares one
session per configuration and times it with the shared warmup/median
protocol.
"""

from __future__ import annotations

import dataclasses

from repro.backends.backend import Backend
from repro.bench.harness import FailureRow, run_guarded, time_model
from repro.bench.journal import RunJournal, open_journal
from repro.bench.reporting import format_csv, format_table
from repro.models import zoo
from repro.runtime.profiler import Samples
from repro.runtime.session import _validate_protocol


@dataclasses.dataclass(frozen=True)
class SweepPoint(Samples):
    """One configuration's timing."""

    model: str
    batch: int
    image_size: int
    times: tuple[float, ...]

    @property
    def per_item_ms(self) -> float:
        """Median latency per batched item, in milliseconds."""
        return self.median * 1e3 / self.batch


@dataclasses.dataclass(frozen=True)
class SweepResult:
    model: str
    parameter: str                      # "batch" | "image_size"
    points: tuple[SweepPoint, ...]
    failures: tuple[FailureRow, ...] = ()
    resumed: int = 0    # cells replayed from a run journal

    @property
    def complete(self) -> bool:
        """True when every requested configuration was measured."""
        return not self.failures

    def rows(self) -> list[list[object]]:
        return [
            [getattr(point, self.parameter), point.median * 1e3,
             point.per_item_ms]
            for point in self.points
        ]

    def table(self) -> str:
        body = format_table(
            [self.parameter, "median (ms)", "per item (ms)"],
            self.rows(),
            title=f"{self.model}: latency vs {self.parameter}")
        notes = [f"  {failure}" for failure in self.failures]
        return "\n".join([body, *notes])

    def csv(self) -> str:
        return format_csv(
            [self.parameter, "median_ms", "per_item_ms"], self.rows())

    def scaling_factor(self) -> float:
        """Last point's per-item cost over the first's (<1 = amortising).

        Raises:
            ValueError: fewer than two points were measured (e.g. the rest
                of the sweep degraded into failure rows).
        """
        if len(self.points) < 2:
            raise ValueError(
                f"scaling_factor needs >= 2 measured points, have "
                f"{len(self.points)} ({len(self.failures)} failed)")
        return self.points[-1].per_item_ms / self.points[0].per_item_ms


def _time_config(
    model: str, batch: int, image_size: int | None,
    backend: "str | Backend", repeats: int, warmup: int,
    deadline_ms: float | None = None,
    memory_budget_bytes: int | None = None,
    engine_cache=None,
) -> SweepPoint:
    """One sweep cell through :func:`~repro.bench.harness.time_model`."""
    stats = time_model(
        model, backend=backend, repeats=repeats,
        warmup=warmup, batch=batch, image_size=image_size,
        deadline_ms=deadline_ms, memory_budget_bytes=memory_budget_bytes,
        engine_cache=engine_cache)
    return SweepPoint(
        model=model, batch=batch,
        image_size=image_size or zoo.get_entry(model).image_size,
        times=stats.times)


def _run_sweep(
    model: str,
    parameter: str,
    cells: "tuple[tuple[int, int | None], ...]",  # (batch, image_size) pairs
    backend: "str | Backend",
    repeats: int,
    warmup: int,
    retries: int,
    deadline_ms: float | None,
    memory_budget_bytes: int | None,
    journal: "RunJournal | str | None",
    engine_cache=None,
) -> SweepResult:
    """Shared sweep engine: failure boundary + run-journal per cell."""
    _validate_protocol(repeats, warmup)
    if engine_cache is not None:
        from repro.engine.cache import EngineCache
        engine_cache = EngineCache.coerce(engine_cache)
    backend_name = backend if isinstance(backend, str) else backend.name
    book = open_journal(journal)
    points: list[SweepPoint] = []
    failures: list[FailureRow] = []
    resumed = 0
    for batch, image_size in cells:
        varying = batch if parameter == "batch" else image_size
        label = f"{model}@{parameter}={varying}"
        key = {
            "experiment": f"{parameter}_sweep", "model": model,
            "backend": backend_name, "batch": batch,
            "image_size": image_size,
            "repeats": repeats, "warmup": warmup,
        }
        if book is not None:
            entry = book.get(**key)
            if entry is not None:
                resumed += 1
                if entry.kind == "measurement":
                    points.append(SweepPoint(
                        model=model, batch=batch,
                        image_size=int(entry.payload.get(
                            "resolved_image_size",
                            image_size or zoo.get_entry(model).image_size)),
                        times=tuple(entry.payload["times"])))
                else:
                    failures.append(entry.to_failure_row())
                continue
        point, failure = run_guarded(
            lambda: _time_config(
                model, batch, image_size, backend, repeats, warmup,
                deadline_ms=deadline_ms,
                memory_budget_bytes=memory_budget_bytes,
                engine_cache=engine_cache),
            label=label, retries=retries)
        if failure is not None:
            failures.append(failure)
            if book is not None:
                book.record_failure(key, failure)
        else:
            points.append(point)
            if book is not None:
                book.record_measurement(
                    key, point.times, resolved_image_size=point.image_size)
    return SweepResult(model=model, parameter=parameter,
                       points=tuple(points), failures=tuple(failures),
                       resumed=resumed)


def batch_sweep(
    model: str,
    batches: tuple[int, ...] = (1, 2, 4, 8),
    image_size: int | None = None,
    backend: "str | Backend" = "orpheus",
    repeats: int = 5,
    warmup: int = 1,
    retries: int = 1,
    deadline_ms: float | None = None,
    memory_budget_bytes: int | None = None,
    journal: "RunJournal | str | None" = None,
    engine_cache=None,
) -> SweepResult:
    """Latency vs batch size at fixed resolution.

    A configuration that keeps failing with an
    :class:`~repro.errors.OrpheusError` (after ``retries`` extra tries)
    becomes a :class:`~repro.bench.harness.FailureRow` on the result
    instead of aborting the sweep. That boundary also absorbs the resource
    guardrails: an over-budget batch (``memory_budget_bytes``) or an
    expired per-run deadline (``deadline_ms``) turns into a failure row
    and the remaining batches keep measuring.

    With a ``journal``, each completed cell is appended as it finishes and
    already-recorded cells are replayed instead of re-measured
    (``SweepResult.resumed`` counts them), so a killed sweep restarts
    where it died.

    ``engine_cache`` (an :class:`~repro.engine.cache.EngineCache` or a
    directory path) warm-starts each configuration's prepare from a
    compiled engine, populating the cache on the first pass — a re-run
    sweep then skips every cold prepare.
    """
    return _run_sweep(
        model, "batch", tuple((b, image_size) for b in batches),
        backend, repeats, warmup, retries,
        deadline_ms, memory_budget_bytes, journal,
        engine_cache=engine_cache)


def resolution_sweep(
    model: str,
    image_sizes: tuple[int, ...],
    backend: "str | Backend" = "orpheus",
    repeats: int = 5,
    warmup: int = 1,
    retries: int = 1,
    deadline_ms: float | None = None,
    memory_budget_bytes: int | None = None,
    journal: "RunJournal | str | None" = None,
    engine_cache=None,
) -> SweepResult:
    """Latency vs input resolution at batch 1.

    Degrades per point like :func:`batch_sweep` (failure rows, resource
    guardrails, resumable journal, ``engine_cache`` warm starts): failing
    configurations turn into failure rows, the sweep always completes,
    and a journal lets it resume.
    """
    return _run_sweep(
        model, "image_size", tuple((1, size) for size in image_sizes),
        backend, repeats, warmup, retries,
        deadline_ms, memory_budget_bytes, journal,
        engine_cache=engine_cache)
