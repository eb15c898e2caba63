"""Rebinding a parsed :class:`~repro.engine.format.Engine` to live kernels.

The engine file stores implementation *names*; this module resolves them
against the loading process's kernel registry and packages the result as
the executor's :class:`~repro.runtime.executor.PreparedGraph` warm-start
payload. Resolution is where "stale" gets its teeth beyond fingerprints:
a primary kernel that is no longer registered, or whose applicability
predicate now rejects the node, makes the whole engine stale
(:class:`~repro.errors.EngineError`) — running a different kernel than
the one the engine promised would silently invalidate every plan frozen
alongside it. Missing *fallback* entries, by contrast, are just dropped:
the chain is best-effort insurance, and a shorter chain is still the
same program.
"""

from __future__ import annotations

from repro.backends.backend import Backend
from repro.engine.format import Engine
from repro.errors import EngineError, KernelError
from repro.runtime.executor import PreparedGraph, PreparedNode


def resolve_prepared(engine: Engine, backend: Backend) -> PreparedGraph:
    """Turn an engine's frozen plans into a live :class:`PreparedGraph`.

    Raises:
        EngineError: a schedule name has no node (corrupt cross-reference
            the format checks could not see), or a node's *primary* kernel
            is unregistered or no longer applicable (stale engine).
    """
    by_name = {node.name: node for node in engine.graph.nodes}
    registry = backend.registry
    schedule_nodes = []
    schedule: list[PreparedNode] = []
    for index, node_name in enumerate(engine.schedule):
        node = by_name.get(node_name)
        if node is None:
            raise EngineError(
                f"engine schedule names unknown node {node_name!r}")
        schedule_nodes.append(node)
        shapes = [
            engine.value_types[name][0] if name else ()
            for name in node.inputs
        ]
        chain = []
        for position, impl_name in enumerate(engine.fallback_plan[node_name]):
            try:
                impl = registry.get(node.op_type, impl_name)
            except KernelError as exc:
                if position == 0:
                    raise EngineError(
                        f"stale engine: primary kernel "
                        f"{node.op_type}:{impl_name} for node {node_name!r} "
                        f"is not registered ({exc})") from exc
                continue  # a lost fallback shortens the chain, nothing more
            if position == 0 and not impl.supports(node, shapes):
                raise EngineError(
                    f"stale engine: primary kernel {impl.key} no longer "
                    f"applies to node {node_name!r} with shapes "
                    f"{list(shapes)}")
            chain.append(impl)
        schedule.append(PreparedNode(
            index=index, node=node, impl=chain[0], candidates=tuple(chain)))
    return PreparedGraph(
        value_types=dict(engine.value_types),
        schedule_nodes=schedule_nodes,
        schedule=schedule,
    )
