"""Kernel registry: many implementations per operator.

This is the heart of the paper's design — "layers are treated as first class
citizens, and have multiple implementations which are selected at runtime".
Every kernel registers under ``(op_type, impl_name)`` with a priority and an
applicability predicate; a backend (see :mod:`repro.backends`) turns the
registry into a concrete per-node choice.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import KernelError
from repro.ir.node import Node
from repro.kernels.context import ExecutionContext

KernelFn = Callable[[Sequence[np.ndarray], Node, ExecutionContext], list[np.ndarray]]
Predicate = Callable[[Node, Sequence[tuple[int, ...]]], bool]


@dataclasses.dataclass(frozen=True)
class KernelImpl:
    """One registered implementation of one operator.

    Attributes:
        op_type: operator this kernel implements (e.g. ``"Conv"``).
        name: implementation name (e.g. ``"im2col"``, ``"winograd"``).
        fn: the kernel function.
        priority: tie-break when a backend expresses no preference; higher
            wins.
        applicable: returns False when the node's attributes/shapes rule the
            kernel out (e.g. Winograd requires 3x3 stride-1 convolutions).
        experimental: excluded from default selection; only chosen when a
            backend or user names it explicitly.
    """

    op_type: str
    name: str
    fn: KernelFn
    priority: int = 0
    applicable: Predicate | None = None
    experimental: bool = False

    def supports(self, node: Node, input_shapes: Sequence[tuple[int, ...]]) -> bool:
        if self.applicable is None:
            return True
        return self.applicable(node, input_shapes)

    @property
    def key(self) -> str:
        return f"{self.op_type}:{self.name}"


class KernelRegistry:
    """Mutable mapping of ``(op_type, impl_name)`` to :class:`KernelImpl`."""

    def __init__(self) -> None:
        self._impls: dict[str, dict[str, KernelImpl]] = {}

    def register(self, impl: KernelImpl) -> None:
        per_op = self._impls.setdefault(impl.op_type, {})
        if impl.name in per_op:
            raise KernelError(f"kernel {impl.key!r} registered twice")
        per_op[impl.name] = impl

    def unregister(self, op_type: str, name: str) -> None:
        per_op = self._impls.get(op_type, {})
        if name not in per_op:
            raise KernelError(f"kernel {op_type}:{name} is not registered")
        del per_op[name]

    def get(self, op_type: str, name: str) -> KernelImpl:
        try:
            return self._impls[op_type][name]
        except KeyError:
            raise KernelError(
                f"no kernel {op_type}:{name}; available: "
                f"{sorted(self._impls.get(op_type, {}))}"
            ) from None

    def implementations(self, op_type: str) -> list[KernelImpl]:
        """All implementations of ``op_type``, highest priority first."""
        impls = list(self._impls.get(op_type, {}).values())
        return sorted(impls, key=lambda impl: (-impl.priority, impl.name))

    def op_types(self) -> list[str]:
        return sorted(self._impls)

    def candidates(
        self, node: Node, input_shapes: Sequence[tuple[int, ...]],
        include_experimental: bool = False,
    ) -> list[KernelImpl]:
        """Applicable implementations for ``node``, highest priority first."""
        return [
            impl
            for impl in self.implementations(node.op_type)
            if (include_experimental or not impl.experimental)
            and impl.supports(node, input_shapes)
        ]

    def select(
        self,
        node: Node,
        input_shapes: Sequence[tuple[int, ...]],
        preferences: Sequence[str] = (),
        include_experimental: bool = False,
    ) -> KernelImpl:
        """Pick an implementation for ``node``.

        ``preferences`` is an ordered list of implementation names (the
        backend's policy for this op); the first applicable preferred name
        wins — experimental or not, a name is an explicit choice —
        otherwise the highest-priority applicable kernel, experimental
        ones competing only under ``include_experimental``.

        Raises:
            KernelError: no implementation exists or none is applicable.
        """
        per_op = self._impls.get(node.op_type)
        if not per_op:
            raise KernelError(f"no kernels registered for op {node.op_type!r}")
        for name in preferences:
            impl = per_op.get(name)
            if impl is not None and impl.supports(node, input_shapes):
                return impl
        candidates = self.candidates(
            node, input_shapes, include_experimental=include_experimental)
        if not candidates:
            raise KernelError(
                f"no applicable kernel for node {node.name!r} ({node.op_type}) "
                f"with input shapes {list(input_shapes)}"
            )
        return candidates[0]


# The global registry all built-in kernels register into. Backends may also
# carry private registries; the executor consults the backend.
REGISTRY = KernelRegistry()


def kernel(
    op_type: str,
    name: str,
    priority: int = 0,
    applicable: Predicate | None = None,
    experimental: bool = False,
) -> Callable[[KernelFn], KernelFn]:
    """Decorator registering ``fn`` in the global registry."""

    def decorator(fn: KernelFn) -> KernelFn:
        REGISTRY.register(KernelImpl(
            op_type=op_type, name=name, fn=fn, priority=priority,
            applicable=applicable, experimental=experimental,
        ))
        return fn

    return decorator
