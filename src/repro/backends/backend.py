"""Backend abstraction: a named kernel-selection policy.

A backend answers one question per node — *which implementation runs this
layer?* — optionally routes all matrix multiplies through a specific GEMM
primitive, and may carry per-layer overrides ("run node conv3 with
Winograd"). This is the mechanism behind the paper's "layers ... have
multiple implementations which are selected at runtime" and its
"easy integration of third party backends": a third-party integration is
just new kernels plus a Backend naming them.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.errors import BackendError, KernelError
from repro.ir.node import Node
from repro.kernels.gemm import GEMM_PRIMITIVES
from repro.kernels.registry import REGISTRY, KernelImpl, KernelRegistry


@dataclasses.dataclass(frozen=True)
class Backend:
    """A kernel-selection policy.

    Attributes:
        name: registry key (e.g. ``"orpheus"``).
        description: one line for ``orpheus backends`` CLI output.
        preferences: map op type -> ordered implementation names to try
            first. Ops absent from the map fall back to priority order.
        node_overrides: map node name -> implementation name, taking
            precedence over ``preferences`` (per-layer experimentation).
        gemm: name of the GEMM primitive kernels must use (see
            :data:`repro.kernels.gemm.GEMM_PRIMITIVES`).
        registry: kernel registry to resolve against (the global one unless
            a third-party integration brings its own).
        include_experimental: allow implicitly selecting kernels flagged
            experimental (named preferences always work).
        quantize: auto-quantize graphs prepared against this backend —
            sessions and the engine compiler run post-training int8
            quantization (:mod:`repro.quant.auto`) after the optimisation
            pipeline, then execute with this backend's quantized kernel
            preferences. Convs the quantizer cannot convert stay float:
            degradation is structural, never a crash.
    """

    name: str
    description: str = ""
    preferences: Mapping[str, tuple[str, ...]] = dataclasses.field(default_factory=dict)
    node_overrides: Mapping[str, str] = dataclasses.field(default_factory=dict)
    gemm: str = "blas"
    registry: KernelRegistry = dataclasses.field(default=REGISTRY, repr=False)
    include_experimental: bool = False
    quantize: bool = False

    def __post_init__(self) -> None:
        if self.gemm not in GEMM_PRIMITIVES:
            raise BackendError(
                f"backend {self.name!r}: unknown gemm primitive {self.gemm!r}; "
                f"expected one of {sorted(GEMM_PRIMITIVES)}"
            )

    @property
    def gemm_fn(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        return GEMM_PRIMITIVES[self.gemm]

    def select(
        self, node: Node, input_shapes: Sequence[tuple[int, ...]]
    ) -> KernelImpl:
        """Choose the kernel implementation for ``node``.

        Raises:
            BackendError: a node override names an inapplicable kernel.
        """
        override = self.node_overrides.get(node.name)
        if override is not None:
            impl = self.registry.get(node.op_type, override)
            if not impl.supports(node, input_shapes):
                raise BackendError(
                    f"backend {self.name!r}: override {override!r} is not "
                    f"applicable to node {node.name!r} with shapes "
                    f"{list(input_shapes)}"
                )
            return impl
        return self.registry.select(
            node, input_shapes,
            preferences=self.preferences.get(node.op_type, ()),
            include_experimental=self.include_experimental)

    def candidates(
        self, node: Node, input_shapes: Sequence[tuple[int, ...]]
    ) -> list[KernelImpl]:
        """The full ordered kernel chain for ``node``: winner first.

        This is what makes the paper's "multiple implementations selected
        at runtime" fault-tolerant: the executor binds the whole chain at
        prepare time and, when an implementation fails mid-run, falls back
        to the next entry. Order: the :meth:`select` winner, then the
        remaining backend preferences, then every other applicable
        implementation in registry priority order — with an applicable
        implementation literally named ``"reference"`` appended as the
        last resort even when it is flagged experimental (a slow but
        numerically canonical kernel is exactly what a fallback chain
        should bottom out on).
        """
        primary = self.select(node, input_shapes)
        chain = [primary]
        pool = self.registry.candidates(
            node, input_shapes, include_experimental=self.include_experimental)
        by_name = {impl.name: impl for impl in pool}
        for name in self.preferences.get(node.op_type, ()):
            impl = by_name.get(name)
            if impl is not None and impl not in chain:
                chain.append(impl)
        for impl in pool:
            if impl not in chain:
                chain.append(impl)
        try:
            reference = self.registry.get(node.op_type, "reference")
        except KernelError:
            return chain
        if reference not in chain and reference.supports(node, input_shapes):
            chain.append(reference)
        return chain

    def with_overrides(self, overrides: Mapping[str, str]) -> "Backend":
        """A copy with extra per-node implementation overrides."""
        merged = dict(self.node_overrides)
        merged.update(overrides)
        return dataclasses.replace(self, node_overrides=merged)

    def with_preferences(self, **per_op: tuple[str, ...]) -> "Backend":
        """A copy with op-level preferences merged in."""
        merged = dict(self.preferences)
        merged.update(per_op)
        return dataclasses.replace(self, preferences=merged)


_BACKENDS: dict[str, Backend] = {}


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Register a backend under its name (the third-party plugin hook)."""
    if backend.name in _BACKENDS and not replace:
        raise BackendError(f"backend {backend.name!r} already registered")
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; registered: {sorted(_BACKENDS)}"
        ) from None


def list_backends() -> list[Backend]:
    return [_BACKENDS[name] for name in sorted(_BACKENDS)]


def unregister_backend(name: str) -> None:
    if name not in _BACKENDS:
        raise BackendError(f"backend {name!r} is not registered")
    del _BACKENDS[name]
