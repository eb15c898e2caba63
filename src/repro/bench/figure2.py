"""Figure 2: single-thread inference time across models and frameworks.

The paper's evaluation figure plots the inference time of five models
(WRN-40-2, MobileNetV1, ResNet-18, Inception-v3, ResNet-50) under Orpheus,
TVM and PyTorch on one Cortex-A73 core, and explains why DarkNet and
TF-Lite are excluded. :func:`run_figure2` regenerates the full grid —
measurements where a framework can run the model, recorded exclusion
reasons where it cannot.
"""

from __future__ import annotations

import dataclasses

from repro.errors import FrameworkUnavailableError
from repro.frameworks.adapters import EVALUATION_ORDER
from repro.frameworks.base import Measurement, get_adapter
from repro.bench.harness import FailureRow, run_guarded
from repro.bench.journal import RunJournal, open_journal
from repro.bench.reporting import format_csv, format_table
from repro.models.zoo import FIGURE2_MODELS


@dataclasses.dataclass(frozen=True)
class Exclusion:
    """A (framework, model) cell the framework could not run — with the reason."""

    framework: str
    model: str
    reason: str


@dataclasses.dataclass
class Figure2Result:
    """The regenerated Figure 2 grid."""

    measurements: list[Measurement]
    exclusions: list[Exclusion]
    models: tuple[str, ...]
    frameworks: tuple[str, ...]
    threads: int
    repeats: int
    failures: list[FailureRow] = dataclasses.field(default_factory=list)
    resumed: int = 0    # cells answered from a run journal, not re-measured

    @property
    def complete(self) -> bool:
        """True when no cell failed unexpectedly (exclusions are expected)."""
        return not self.failures

    def median_ms(self, framework: str, model: str) -> float | None:
        for m in self.measurements:
            if m.framework == framework and m.model == model:
                return m.median * 1e3
        return None

    def best_ms(self, framework: str, model: str) -> float | None:
        """Min-of-N time — the noise-robust statistic for ranking claims."""
        for m in self.measurements:
            if m.framework == framework and m.model == model:
                return m.best * 1e3
        return None

    def winner(self, model: str) -> str | None:
        """Framework with the lowest median time on ``model``."""
        best_name, best_time = None, float("inf")
        for m in self.measurements:
            if m.model == model and m.median < best_time:
                best_name, best_time = m.framework, m.median
        return best_name

    def speedup(self, model: str, framework: str, baseline: str) -> float | None:
        """``baseline`` time / ``framework`` time (>1 means faster)."""
        mine = self.median_ms(framework, model)
        theirs = self.median_ms(baseline, model)
        if mine is None or theirs is None:
            return None
        return theirs / mine

    def rows(self) -> list[list[object]]:
        table = []
        for model in self.models:
            row: list[object] = [model]
            for framework in self.frameworks:
                row.append(self.median_ms(framework, model))
            row.append(self.winner(model) or "-")
            table.append(row)
        return table

    def headers(self) -> list[str]:
        return ["model", *[f"{fw} (ms)" for fw in self.frameworks], "winner"]

    def table(self) -> str:
        body = format_table(
            self.headers(), self.rows(),
            title=(f"Figure 2: inference time, {self.threads} thread(s), "
                   f"median of {self.repeats}"))
        notes = [
            f"  excluded {exc.framework}/{exc.model}: {exc.reason}"
            for exc in self.exclusions
        ]
        notes.extend(f"  {failure}" for failure in self.failures)
        return "\n".join([body, *notes])

    def csv(self) -> str:
        return format_csv(self.headers(), self.rows())

    def chart(self, width: int = 52) -> str:
        """Render the grid as horizontal ASCII bars — the literal figure.

        Bars are scaled per model (each model gets its own axis, like the
        paper's clustered columns); excluded cells render as the exclusion
        marker.
        """
        lines = [f"Figure 2: inference time, {self.threads} thread(s), "
                 f"median of {self.repeats} (bar scale per model)"]
        label_width = max(len(fw) for fw in self.frameworks)
        for model in self.models:
            lines.append("")
            lines.append(f"{model}")
            cells = {fw: self.median_ms(fw, model) for fw in self.frameworks}
            known = [ms for ms in cells.values() if ms is not None]
            top = max(known) if known else 1.0
            winner = self.winner(model)
            for framework in self.frameworks:
                ms = cells[framework]
                if ms is None:
                    lines.append(f"  {framework:<{label_width}} |"
                                 " (excluded — see notes)")
                    continue
                bar = "#" * max(1, round(width * ms / top))
                marker = "  <- fastest" if framework == winner else ""
                lines.append(f"  {framework:<{label_width}} |{bar} "
                             f"{ms:.1f} ms{marker}")
        return "\n".join(lines)


def run_figure2(
    models: tuple[str, ...] = FIGURE2_MODELS,
    frameworks: tuple[str, ...] = EVALUATION_ORDER,
    threads: int = 1,
    repeats: int = 5,
    warmup: int = 1,
    batch: int = 1,
    image_size: int | None = None,
    verbose: bool = False,
    retries: int = 1,
    journal: "RunJournal | str | None" = None,
    engine_cache: "str | None | object" = None,
) -> Figure2Result:
    """Measure every (framework, model) cell of Figure 2.

    Frameworks that raise :class:`FrameworkUnavailableError` for a model are
    recorded as exclusions with the adapter's stated reason — the same
    bookkeeping the paper reports in prose for DarkNet and TF-Lite.

    Every other :class:`~repro.errors.OrpheusError` — a broken adapter, a
    kernel whose whole fallback chain is exhausted — is confined to its
    cell: the call is retried up to ``retries`` times and then recorded as
    a structured :class:`~repro.bench.harness.FailureRow`, so one poisoned
    (framework, model) combination never aborts the sweep.

    Per model, the timing rounds are *interleaved* across frameworks
    (round-robin) rather than measured back to back, so slow drift in
    machine state (thermal, cache, background load) hits every framework
    equally instead of biasing whichever happened to run first.

    With a ``journal`` (a :class:`~repro.bench.journal.RunJournal` or a
    path to one), every completed cell is appended to the JSONL journal as
    it finishes, and cells the journal already holds — same framework,
    model, and measurement protocol — are replayed from it instead of
    re-measured. A campaign killed after N cells therefore resumes at cell
    N+1; ``Figure2Result.resumed`` counts the replayed cells.

    ``engine_cache`` (an :class:`~repro.engine.cache.EngineCache` or a
    directory path) warm-starts each cell's prepare from a compiled engine
    when one is cached, and freezes cold prepares back into the cache.
    Adapters with bespoke prepare paths (e.g. the TVM simulation's
    autotuning) keep preparing cold. Timing is unaffected either way —
    the cache only moves startup cost.
    """
    from repro.bench.workloads import model_input

    if engine_cache is not None:
        from repro.engine.cache import EngineCache
        engine_cache = EngineCache.coerce(engine_cache)

    book = open_journal(journal)
    resumed = 0

    def key_for(framework: str, model: str) -> dict:
        return {
            "experiment": "figure2", "framework": framework, "model": model,
            "batch": batch, "threads": threads, "image_size": image_size,
            "repeats": repeats, "warmup": warmup,
        }

    measurements: list[Measurement] = []
    exclusions: list[Exclusion] = []
    failures: list[FailureRow] = []

    def record_failure(framework: str, model: str, failure: FailureRow) -> None:
        failures.append(failure)
        if book is not None:
            book.record_failure(key_for(framework, model), failure)
        if verbose:
            print(f"[figure2] {failure}")

    for model in models:
        prepared = {}
        for framework in frameworks:
            if book is not None:
                entry = book.get(**key_for(framework, model))
                if entry is not None:
                    resumed += 1
                    if entry.kind == "measurement":
                        measurements.append(Measurement(
                            framework=framework, model=model,
                            times=tuple(entry.payload["times"])))
                    elif entry.kind == "exclusion":
                        exclusions.append(Exclusion(
                            framework, model,
                            str(entry.payload.get("reason", ""))))
                    else:
                        failures.append(entry.to_failure_row())
                    if verbose:
                        print(f"[figure2] {framework:8s} {model:13s} "
                              f"resumed from journal ({entry.kind})")
                    continue
            adapter = get_adapter(framework)
            try:
                runnable, failure = run_guarded(
                    lambda: adapter.prepare(
                        model, batch=batch, image_size=image_size,
                        threads=threads, engine_cache=engine_cache),
                    label=f"{framework}/{model}", stage="prepare",
                    retries=retries,
                    reraise=(FrameworkUnavailableError,))
            except FrameworkUnavailableError as exc:
                exclusions.append(Exclusion(framework, model, str(exc)))
                if book is not None:
                    book.record_exclusion(key_for(framework, model), str(exc))
                if verbose:
                    print(f"[figure2] {framework:8s} {model:13s} "
                          f"excluded: {exc}")
                continue
            if failure is not None:
                record_failure(framework, model, failure)
                continue
            prepared[framework] = runnable
        if not prepared:
            continue
        x = model_input(model, batch=batch, image_size=image_size)
        for framework, runnable in list(prepared.items()):
            _, failure = run_guarded(
                lambda: [runnable.run(x) for _ in range(warmup)],
                label=f"{framework}/{model}", stage="warmup",
                retries=retries)
            if failure is not None:
                record_failure(framework, model, failure)
                del prepared[framework]
        times: dict[str, list[float]] = {fw: [] for fw in prepared}
        for _round in range(repeats):
            for framework, runnable in list(prepared.items()):
                elapsed, failure = run_guarded(
                    lambda: runnable.time(x, repeats=1, warmup=0)[0],
                    label=f"{framework}/{model}", stage="run",
                    retries=retries)
                if failure is not None:
                    # Drop the framework from the remaining rounds: its
                    # cell is reported as failed, the others keep going.
                    record_failure(framework, model, failure)
                    del prepared[framework]
                    del times[framework]
                    continue
                times[framework].append(elapsed)
        for framework, samples in times.items():
            measurement = Measurement(
                framework=framework, model=model, times=tuple(samples))
            measurements.append(measurement)
            if book is not None:
                book.record_measurement(
                    key_for(framework, model), measurement.times)
            if verbose:
                print(f"[figure2] {framework:8s} {model:13s} "
                      f"{measurement.median * 1e3:9.2f} ms "
                      f"(best {measurement.best * 1e3:.2f})")
    return Figure2Result(
        measurements=measurements, exclusions=exclusions,
        models=tuple(models), frameworks=tuple(frameworks),
        threads=threads, repeats=repeats, failures=failures,
        resumed=resumed)
