"""Global runtime configuration.

A :class:`RuntimeConfig` is attached to every :class:`~repro.runtime.session.
InferenceSession`, which builds it from an optional base ``config=`` plus
keyword overrides (:meth:`RuntimeConfig.overridden`). This docstring is the
one place the fields are documented; there is no process-wide default.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids an import cycle)
    from repro.runtime.faults import FaultPlan


@dataclasses.dataclass(frozen=True)
class RuntimeConfig:
    """Immutable runtime knobs.

    Attributes:
        threads: must be 1: kernels run on one Python thread, the paper's
            single-core setting. Recorded in engine fingerprints. BLAS
            threads are set by ``OMP_NUM_THREADS`` / ``OPENBLAS_NUM_THREADS``.
        optimize: run the graph-simplification pass pipeline before execution.
        validate_kernels: re-check kernel output shapes/dtypes against shape
            inference after every node (slow; for debugging). Implied per
            attempt whenever a fault plan is installed, so corrupt-shape
            faults are caught and trigger fallback.
        kernel_fallback: when a kernel fails on a node, retry with the next
            applicable implementation from the backend's candidate chain
            instead of aborting the run (the run fails only when the whole
            chain is exhausted).
        check_numerics: treat NaN/Inf in any kernel output as a failure
            (:class:`~repro.errors.KernelNumericError`); under fallback the
            node is retried with the next implementation.
        fault_plan: optional :class:`~repro.runtime.faults.FaultPlan`
            injecting deterministic faults into kernel invocations (tests
            and chaos benchmarking); ``None`` disables injection.
        memory_budget_bytes: admission-control budget; a session whose
            memory plan needs more peak resident activation bytes
            (``plan.peak_bytes``) is rejected at prepare time with
            :class:`~repro.errors.MemoryBudgetError`. ``None`` = unlimited.
    """

    threads: int = 1
    optimize: bool = True
    validate_kernels: bool = False
    kernel_fallback: bool = True
    check_numerics: bool = False
    fault_plan: "FaultPlan | None" = None
    memory_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.threads != 1:
            raise ValueError(
                f"threads must be 1, got {self.threads}: kernels run on one "
                "Python thread; set BLAS threads with OMP_NUM_THREADS / "
                "OPENBLAS_NUM_THREADS")
        if (self.memory_budget_bytes is not None
                and self.memory_budget_bytes <= 0):
            raise ValueError(
                f"memory_budget_bytes must be > 0, got "
                f"{self.memory_budget_bytes}")

    def replace(self, **changes: object) -> "RuntimeConfig":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def overridden(self, **overrides: object) -> "RuntimeConfig":
        """A copy with every override that is not ``None`` applied.

        The one override rule of every front door (the session, the engine
        loader, the CLI): a keyword left at ``None`` keeps this config's
        value. Every name reaches the dataclass, so an unknown one is its
        own ``TypeError`` whatever value came with it.
        """
        return self.replace(**{
            name: getattr(self, name, None) if value is None else value
            for name, value in overrides.items()})
