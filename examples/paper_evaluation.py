"""Regenerate the paper's evaluation: Table I and Figure 2.

By default runs a reduced grid (3 repeats); pass ``--full`` for the
full-resolution five-model grid recorded in EXPERIMENTS.md. The run ends
with a verdict on each of the paper's Section III claims (a)-(f).

Run with:  python examples/paper_evaluation.py [--full]
"""

import sys

from repro.bench.figure2 import run_figure2
from repro.bench.table1 import render_table1


def main() -> None:
    full = "--full" in sys.argv[1:]

    print(render_table1(with_rationale=True))
    print()

    result = run_figure2(
        repeats=7 if full else 3,
        warmup=2 if full else 1,
        verbose=True,
    )
    print()
    print(result.table())
    print()
    print(result.chart())
    print()
    print(result.claims_table())


if __name__ == "__main__":
    main()
