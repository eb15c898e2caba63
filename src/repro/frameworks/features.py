"""Table I: qualitative framework comparison.

The paper rates five frameworks on five criteria, 1-3, "based on our
experience". The scores below are transcribed from the paper; the rationale
strings summarise the justification given in Section II so the generated
table is self-documenting. This is the ground truth
``repro.bench.table1`` renders and the test suite locks down.
"""

from __future__ import annotations

#: Criteria in the paper's row order.
CRITERIA = (
    "Low-level modifications",
    "Model interoperability",
    "Platform Compatibility",
    "Codebase accessibility",
    "Performance (inference time)",
)

#: Frameworks in the paper's column order.
FRAMEWORKS = ("TF-Lite", "PyTorch", "DarkNet", "TVM", "Orpheus")

#: Scores exactly as printed in Table I: {framework: {criterion: 1..3}}.
SCORES: dict[str, dict[str, int]] = {
    "TF-Lite": {
        "Low-level modifications": 1,
        "Model interoperability": 2,
        "Platform Compatibility": 3,
        "Codebase accessibility": 1,
        "Performance (inference time)": 2,
    },
    "PyTorch": {
        "Low-level modifications": 1,
        "Model interoperability": 3,
        "Platform Compatibility": 2,
        "Codebase accessibility": 2,
        "Performance (inference time)": 2,
    },
    "DarkNet": {
        "Low-level modifications": 2,
        "Model interoperability": 1,
        "Platform Compatibility": 3,
        "Codebase accessibility": 3,
        "Performance (inference time)": 1,
    },
    "TVM": {
        "Low-level modifications": 2,
        "Model interoperability": 3,
        "Platform Compatibility": 3,
        "Codebase accessibility": 1,
        "Performance (inference time)": 2,
    },
    "Orpheus": {
        "Low-level modifications": 3,
        "Model interoperability": 3,
        "Platform Compatibility": 3,
        "Codebase accessibility": 3,
        "Performance (inference time)": 3,
    },
}

RATIONALE: dict[str, str] = {
    "TF-Lite": ("lack of clear documentation and limited operator support; "
                "importing models is error prone; Python API or embedding"),
    "PyTorch": ("ideal for prototyping and server-class deployment; high "
                "level API is a barrier to low-level modifications"),
    "DarkNet": ("small accessible C codebase, minimal dependencies; lacks "
                "competitive performance and cannot import models"),
    "TVM": ("competitive performance across platforms; requires a niche "
            "programming model; weak spots (e.g. cheap convolution blocks)"),
    "Orpheus": ("inference-only C++; transparent support for experimenting "
                "with alternative backends; layers as first-class citizens"),
}

