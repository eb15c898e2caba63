"""Figure 2: single-thread inference time across models and frameworks.

The paper's evaluation figure plots the inference time of five models
(WRN-40-2, MobileNetV1, ResNet-18, Inception-v3, ResNet-50) under Orpheus,
TVM and PyTorch on one Cortex-A73 core, and explains why DarkNet and
TF-Lite are excluded. :func:`run_figure2` regenerates the full grid —
measurements where a framework can run the model, recorded exclusion
reasons where it cannot — and :meth:`Figure2Result.claims` judges the
paper's Section III claims (a)-(f) on whatever grid was measured.
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


HOLDS, FAILS, NOT_MEASURED = "holds", "fails", "not measured"


@dataclasses.dataclass(frozen=True)
class Claim:
    """One Section III claim about Figure 2, judged on a measured grid.

    ``value`` is the deciding cell's ratio — seconds for (e), excluded of
    requested cells for (f) — and ``threshold`` the bar it must clear;
    ``statistic`` names the per-cell time the ratio compares.
    """

    label: str
    statement: str
    cell: str
    statistic: str
    threshold: str
    value: float | str | None = None
    verdict: str = NOT_MEASURED


def _verdict(value: float | None, op: str, bound: float) -> str:
    if value is None:
        return NOT_MEASURED
    return HOLDS if (value < bound if op == "<" else value > bound) else FAILS


@dataclasses.dataclass
class Figure2Result:
    """The regenerated Figure 2 grid."""

    measurements: list[Measurement]
    exclusions: list[Exclusion]
    models: tuple[str, ...]
    frameworks: tuple[str, ...]
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
            title=f"Figure 2: inference time, 1 thread, median of {self.repeats}")
        notes = [
            f"  excluded {exc.framework}/{exc.model}: {exc.reason}"
            for exc in self.exclusions
        ]
        notes.extend(f"  {failure}" for failure in self.failures)
        return "\n".join([body, *notes])

    def csv(self) -> str:
        return format_csv(self.headers(), self.rows())

    def claims(self) -> list[Claim]:
        """The paper's Section III claims (a)-(f), one verdict each.

        Every timing claim keeps the threshold and statistic (median or
        best-of-N) its check has always used. A claim spanning several
        models is decided by its least favourable measured model and
        reads ``not measured`` when none of its cells were timed.
        Verdicts are a report, not a gate.
        """
        best = f"best-of-{self.repeats}"
        depthwise = self._ratio_claim(
            "d", "PyTorch poor on MobileNetV1 depthwise", "pytorch",
            "orpheus", ("mobilenet-v1",), "median", ">", 1.5)
        wrn_gap = self._ratio("pytorch", "orpheus", "wrn-40-2", "median")
        if isinstance(depthwise.value, float) and wrn_gap is not None:
            # ...and the gap is wider than on WRN-40-2's dense convs.
            depthwise = dataclasses.replace(
                depthwise,
                threshold=f"> 1.5, > {wrn_gap:.2f} (wrn-40-2)",
                verdict=(HOLDS if depthwise.verdict == HOLDS
                         and depthwise.value > wrn_gap else FAILS))
        darknet_ms = self.best_ms("darknet", "resnet18")
        darknet_s = None if darknet_ms is None else darknet_ms / 1e3
        tflite_timed = sum(m.framework == "tflite" for m in self.measurements)
        tflite_excluded = sum(e.framework == "tflite" for e in self.exclusions)
        tflite = Claim("f", "TF-Lite cannot run 1 thread",
                       "tflite at 1 thread", "exclusion", "all excluded")
        if tflite_timed + tflite_excluded:
            tflite = dataclasses.replace(
                tflite, value=f"{tflite_excluded}/{tflite_timed + tflite_excluded}",
                verdict=FAILS if tflite_timed else HOLDS)
        return [
            self._ratio_claim(
                "a", "Orpheus best on big models", "orpheus", "tvm",
                ("inception-v3",), "median", "<", 1.05),
            self._ratio_claim(
                "b", "TVM best on small models", "tvm", "orpheus",
                ("wrn-40-2", "mobilenet-v1"), best, "<", 1.15),
            self._ratio_claim(
                "c", "PyTorch slower than Orpheus everywhere", "pytorch",
                "orpheus", self.models, best, ">", 1),
            depthwise,
            Claim("e", "DarkNet seconds-scale on ResNet-18",
                  "darknet seconds on resnet18", best, "> 1.0", darknet_s,
                  _verdict(darknet_s, ">", 1.0)),
            tflite,
        ]

    def claims_table(self) -> str:
        return format_table(
            ["claim", "verdict", "value", "needs", "statistic",
             "deciding cell", "paper (Section III)"],
            [[f"({c.label})", c.verdict, c.value, c.threshold, c.statistic,
              c.cell, c.statement] for c in self.claims()],
            title="Figure 2 claims on this grid")

    def _ratio(self, num: str, den: str, model: str,
               statistic: str) -> float | None:
        cell_ms = self.median_ms if statistic == "median" else self.best_ms
        a, b = cell_ms(num, model), cell_ms(den, model)
        return None if a is None or b is None else a / b

    def _ratio_claim(self, label: str, statement: str, num: str, den: str,
                     models: tuple[str, ...], statistic: str, op: str,
                     bound: float) -> Claim:
        ratios = {model: self._ratio(num, den, model, statistic)
                  for model in models}
        measured = {m: r for m, r in ratios.items() if r is not None}
        claim = Claim(label, statement,
                      f"{num}/{den} on {', '.join(models)}", statistic,
                      f"{op} {bound:g}")
        if not measured:
            return claim
        # The least favourable model decides: the largest ratio under a
        # "<" bar, the smallest over a ">" one.
        model = (max if op == "<" else min)(measured, key=measured.__getitem__)
        return dataclasses.replace(
            claim, cell=f"{num}/{den} on {model}", value=measured[model],
            verdict=_verdict(measured[model], op, bound))

    def chart(self, width: int = 52) -> str:
        """Render the grid as horizontal ASCII bars — the literal figure.

        Bars are scaled per model (each model gets its own axis, like the
        paper's clustered columns); excluded cells render as the exclusion
        marker.
        """
        lines = ["Figure 2: inference time, 1 thread, "
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
            "batch": batch, "image_size": image_size,
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
                        engine_cache=engine_cache),
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
        repeats=repeats, failures=failures,
        resumed=resumed)
