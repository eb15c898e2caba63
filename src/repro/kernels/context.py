"""Execution context passed to every kernel invocation."""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np


def gemm_blas(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BLAS-backed matrix multiply (numpy's ``@``).

    Defined here rather than beside the other primitives in
    :mod:`repro.kernels.gemm` because :meth:`ExecutionContext.matmul`
    recognises it, and that module imports this one.
    """
    return a @ b


@dataclasses.dataclass
class ExecutionContext:
    """Per-executor kernel environment.

    Attributes:
        gemm: the matrix-multiply primitive kernels should use. Backends
            swap this to route *all* GEMM work through an alternative
            implementation (e.g. the blocked pure-numpy GEMM used by the
            DarkNet simulation).
        cache: node-keyed store for compile-time-constant artefacts —
            pre-transformed weights, packed layouts — that kernels compute
            on first execution and reuse across runs. The executor keeps one
            context for its lifetime, so this is the moral equivalent of an
            AOT weight-layout pass.
        geometry: each conv node's resolved geometry and fused activation,
            keyed by node name and input/weight shapes
            (:func:`repro.kernels.common.conv_geometry`), so a conv pays
            its attribute parsing once per context, not once per call.
        views: views carved from the workspace
            (:meth:`workspace_views`); emptied whenever the workspace is
            replaced, so no view keeps a superseded buffer alive.
    """

    gemm: Callable | None = None
    cache: dict = dataclasses.field(default_factory=dict)
    geometry: dict = dataclasses.field(default_factory=dict)
    views: dict = dataclasses.field(default_factory=dict)

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

    def workspace(self, floats: int, dtype) -> np.ndarray:
        """The context's one flat scratch buffer of ``dtype``, grown to
        at least ``floats`` elements.

        Every kernel that lowers its input (``im2col``, ``direct_dw``)
        carves its padded planes and columns from this one buffer instead
        of allocating them per call or per node (``im2col``'s planes are
        row-padded: per channel a zero head, the image as one run and a
        zero tail, read with row pitch ``W``). Sharing it is sound
        because every call writes each element it reads before reading
        it, so nothing carries over from the previous call; it assumes one
        runner per context at a time, like every other cache entry.
        """
        key = ("workspace", np.dtype(dtype).str)
        buffer = self.cache.get(key)
        if buffer is None or buffer.size < floats:
            buffer = self.cache[key] = np.empty(floats, dtype=dtype)
            self.views.clear()
        return buffer

    def workspace_views(self, key, floats: int, dtype, build: Callable):
        """``build(buffer)`` over :meth:`workspace`, built once per buffer.

        ``ctx.derived(key, (buffer,), ...)`` with one difference: growing
        the workspace drops every entry at once, instead of leaving each
        to pin its old buffer until its kernel next runs.
        """
        buffer = self.workspace(floats, dtype)
        entry = self.views.get(key)
        if entry is None or entry[0] is not buffer:
            entry = self.views[key] = (buffer, build(buffer))
        return entry[1]

    def matmul(self, a, b, out=None):
        """``a @ b`` via the configured GEMM primitive (BLAS by default).

        With ``out``, BLAS writes the product straight into it; a rerouted
        primitive (the DarkNet simulation's blocked GEMM) allocates its
        result, which is then copied in, so the caller's epilogue can run
        in place either way. Returns ``out`` when given.
        """
        if self.gemm is None or self.gemm is gemm_blas:
            return np.matmul(a, b, out=out)
        if out is None:
            return self.gemm(a, b)
        out[...] = self.gemm(a, b)
        return out
