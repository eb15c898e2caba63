"""Execution context passed to every kernel invocation."""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.parallel import parallel_for


@dataclasses.dataclass
class ExecutionContext:
    """Per-executor kernel environment.

    Attributes:
        threads: worker-thread budget for ``parallel_for`` (1 = paper setting).
        gemm: the matrix-multiply primitive kernels should use. Backends
            swap this to route *all* GEMM work through an alternative
            implementation (e.g. the blocked pure-numpy GEMM used by the
            DarkNet simulation).
        cache: node-keyed store for compile-time-constant artefacts —
            pre-transformed weights, packed layouts — that kernels compute
            on first execution and reuse across runs. The executor keeps one
            context for its lifetime, so this is the moral equivalent of an
            AOT weight-layout pass.
    """

    threads: int = 1
    gemm: Callable | None = None
    cache: dict = dataclasses.field(default_factory=dict)

    def cached(self, key, compute: Callable):
        """Return ``cache[key]``, computing and storing it on first use.

        ``setdefault`` keeps the store single-valued even if two threads
        race the first computation on a shared context: both compute, one
        value wins, and every later lookup sees that same object (packed
        weight layouts must stay aliasable across runs).
        """
        try:
            return self.cache[key]
        except KeyError:
            return self.cache.setdefault(key, compute())

    def derived(self, key, sources: tuple, compute: Callable):
        """Return the value ``compute()`` derives from the arrays ``sources``.

        For artefacts that are functions of a node's *inputs* (a Winograd
        filter transform, a packed weight layout) rather than of the node
        alone. The entry stores the source arrays beside the value and is
        served only while every source ``is`` the stored one; anything else
        — a weight fed as a graph input, a new array at a recycled ``id`` —
        recomputes and replaces it, so a key holds one entry, never a stale
        one. Holding the sources is what makes the identity test sound.
        """
        entry = self.cache.get(key)
        if (entry is not None and len(entry[0]) == len(sources)
                and all(a is b for a, b in zip(entry[0], sources))):
            return entry[1]
        value = compute()
        self.cache[key] = (sources, value)
        return value

    def parallel_for(self, total: int, body: Callable[[int, int], None]) -> None:
        parallel_for(total, body, threads=self.threads)

    def matmul(self, a, b):
        """Multiply via the configured GEMM primitive (BLAS by default)."""
        if self.gemm is not None:
            return self.gemm(a, b)
        return a @ b
