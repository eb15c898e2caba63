"""Benchmark harness: the paper's experiments and the ablation infrastructure."""

from repro.bench.figure2 import Exclusion, Figure2Result, run_figure2
from repro.bench.harness import (
    FailureRow,
    RunStats,
    run_guarded,
    time_model,
)
from repro.bench.journal import JournalEntry, RunJournal, cell_key, open_journal
from repro.bench.layerwise import (
    STANDARD_CONV_CASES,
    ConvCase,
    LayerRaceResult,
    race_conv_impls,
)
from repro.bench.quant import (
    format_quant_bench,
    measure_quant_crossover,
)
from repro.bench.reporting import format_csv, format_table
from repro.bench.sweeps import SweepPoint, SweepResult, batch_sweep, resolution_sweep
from repro.bench.table1 import render_table1, table1_csv, table1_headers, table1_rows
from repro.bench.workloads import (
    calibration_batches,
    model_input,
    synthetic_image_batch,
)

__all__ = [
    "ConvCase",
    "Exclusion",
    "FailureRow",
    "Figure2Result",
    "JournalEntry",
    "RunJournal",
    "cell_key",
    "open_journal",
    "run_guarded",
    "LayerRaceResult",
    "RunStats",
    "STANDARD_CONV_CASES",
    "SweepPoint",
    "SweepResult",
    "batch_sweep",
    "resolution_sweep",
    "calibration_batches",
    "format_csv",
    "format_quant_bench",
    "format_table",
    "measure_quant_crossover",
    "model_input",
    "race_conv_impls",
    "render_table1",
    "run_figure2",
    "synthetic_image_batch",
    "table1_csv",
    "table1_headers",
    "table1_rows",
    "time_model",
]
