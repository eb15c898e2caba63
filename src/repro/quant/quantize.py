"""Post-training quantization: the QDQ graph transform.

``quantize_graph`` converts every convolution in a calibrated graph to
``QuantizeLinear -> QLinearConv -> DequantizeLinear`` islands, then grows
the islands into regions with the boundary passes in
:mod:`repro.passes.qdq`: identity DQ/Q pairs between adjacent convolutions
are cancelled, and MaxPool/Concat nodes sitting between quantized convs
are commuted into the uint8 domain. Ops that cannot commute exactly
(AveragePool, residual Add, Gemm) keep their float kernels — the standard
mixed-precision deployment shape, and the structural form of "fall back
instead of degrading silently".

:func:`unify_ranges` makes the commuting legal: before islands are built,
values related by a range-preserving op (MaxPool input/output, every leg
of a Concat) are forced to share one quantization range — the union, which
is always a valid (merely coarser) choice — so the boundary passes find
bitwise-equal parameters in exactly the spots they need them.

Calibration runs the *optimised* float graph over user-supplied batches and
records every value's range (min-max by default, percentile optionally).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping

import numpy as np

from repro.backends import get_backend
from repro.config import RuntimeConfig
from repro.errors import QuantizationError
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.quant.observers import (
    MinMaxObserver,
    PercentileObserver,
    QuantParams,
    activation_params,
    weight_params_per_channel,
)
from repro.runtime.executor import Executor


def calibrate(
    graph: Graph,
    batches: Iterable[Mapping[str, np.ndarray]],
    observer: str = "minmax",
    percentile: float = 99.9,
) -> dict[str, QuantParams]:
    """Observe every value's range over ``batches``.

    Args:
        graph: the float graph (already optimised, since node fusion changes
            which values exist).
        batches: iterable of feed dicts.
        observer: ``"minmax"`` or ``"percentile"``.
        percentile: clip percentile for the percentile observer.

    Returns:
        ``{value_name: QuantParams}`` for every float activation.
    """
    if observer not in ("minmax", "percentile"):
        raise QuantizationError(f"unknown observer {observer!r}")
    executor = Executor(graph, get_backend("orpheus"), RuntimeConfig())
    observers: dict[str, object] = {}
    saw_any = False
    for feeds in batches:
        saw_any = True
        values, _ = executor.run(feeds, keep_values=True)
        for name, array in values.items():
            if name in graph.initializers:
                continue
            if not np.issubdtype(array.dtype, np.floating):
                continue
            tracker = observers.get(name)
            if tracker is None:
                tracker = (MinMaxObserver() if observer == "minmax"
                           else PercentileObserver(percentile))
                observers[name] = tracker
            tracker.observe(array)  # type: ignore[union-attr]
    if not saw_any:
        raise QuantizationError("calibration needs at least one batch")
    return {name: tracker.params()  # type: ignore[union-attr]
            for name, tracker in observers.items()}


@dataclasses.dataclass(frozen=True)
class QuantizationReport:
    """What the transform did."""

    converted_convs: int
    skipped_convs: int
    removed_roundtrips: int
    commuted_pools: int = 0
    unified_ranges: int = 0

    def __str__(self) -> str:
        return (f"quantized {self.converted_convs} convs "
                f"({self.skipped_convs} skipped), removed "
                f"{self.removed_roundtrips} DQ/Q round-trips, "
                f"commuted {self.commuted_pools} pooling/concat nodes "
                f"into uint8")

    def as_dict(self) -> dict[str, int]:
        """JSON-ready form, stored in engine headers and bench documents."""
        return dataclasses.asdict(self)


def _params_bounds(params: QuantParams) -> tuple[float, float]:
    """The float range ``[low, high]`` a uint8 QuantParams covers."""
    info = np.iinfo(params.dtype)
    low = (info.min - params.zero_point) * params.scale
    high = (info.max - params.zero_point) * params.scale
    return low, high


def unify_ranges(
    graph: Graph, ranges: Mapping[str, QuantParams],
) -> tuple[dict[str, QuantParams], int]:
    """Force range-preserving op groups to share one quantization range.

    MaxPool output values are a subset of input values, and a Concat's
    output is exactly the multiset union of its inputs — so quantizing
    every value in such a group with the *union* of the calibrated ranges
    is always valid, merely (marginally) coarser for some members. The
    payoff: the Q/DQ nodes the island transform later places around these
    ops quote bitwise-equal parameters, which is the precondition for
    :class:`repro.passes.qdq.CommuteQDQPooling` to pull the op into the
    uint8 domain.

    Returns the adjusted copy of ``ranges`` and how many values changed.
    """
    unified = dict(ranges)
    adjusted: set[str] = set()
    for _ in range(8):  # fixpoint: groups can chain (pool into concat)
        changed = False
        for node in graph.nodes:
            if node.op_type == "MaxPool":
                if len(node.outputs) != 1:
                    continue
                group = [node.inputs[0], node.outputs[0]]
            elif node.op_type == "Concat":
                group = [*node.inputs, node.outputs[0]]
            else:
                continue
            if any(name not in unified for name in group):
                continue
            bounds = [_params_bounds(unified[name]) for name in group]
            shared = activation_params(
                min(low for low, _ in bounds), max(high for _, high in bounds))
            for name in group:
                if unified[name] != shared:
                    unified[name] = shared
                    adjusted.add(name)
                    changed = True
        if not changed:
            break
    return unified, len(adjusted)


def quantize_graph(
    graph: Graph,
    ranges: Mapping[str, QuantParams],
) -> tuple[Graph, QuantizationReport]:
    """Convert calibrated convolutions to QLinearConv islands.

    Convs whose input or output has no calibration record, or with grouped
    (non-depthwise) weights, are left in float.
    """
    out = graph.copy()
    ranges, unified = unify_ranges(out, ranges)
    converted = 0
    skipped = 0
    counter = 0

    def fresh(hint: str) -> str:
        nonlocal counter
        counter += 1
        return f"q_{hint}_{counter}"

    new_nodes: list[Node] = []
    # One QuantizeLinear per source value: a float value feeding several
    # quantized convs (SqueezeNet's squeeze -> expand1x1 + expand3x3) is
    # quantized once and shared, which also lets CancelQDQ collapse the
    # producing conv's DQ against the single shared Q.
    quantized_inputs: dict[str, str] = {}
    for node in out.toposort():
        if node.op_type != "Conv":
            new_nodes.append(node)
            continue
        x_name = node.inputs[0]
        y_name = node.outputs[0]
        weight = out.initializers.get(node.inputs[1])
        group = node.attrs.get_int("group", 1)
        depthwise = (weight is not None and group == weight.shape[0]
                     and weight.shape[1] == 1)
        if (weight is None or x_name not in ranges or y_name not in ranges
                or (group != 1 and not depthwise)):
            skipped += 1
            new_nodes.append(node)
            continue
        x_params = ranges[x_name]
        y_params = ranges[y_name]
        w_scales, w_q = weight_params_per_channel(weight)

        names = _QNames(fresh)
        # Quant params are stored 1-element 1-D (never 0-D): the ONNX
        # round-trip inside engine serialization widens 0-D initializers
        # to shape (1,), and the verifier would flag the drift as ORV104.
        out.initializers[names.x_scale] = np.asarray(
            [x_params.scale], dtype=np.float32)
        out.initializers[names.x_zp] = np.asarray(
            [x_params.zero_point], dtype=np.uint8)
        out.initializers[names.w] = w_q
        out.initializers[names.w_scale] = w_scales
        out.initializers[names.w_zp] = np.zeros(1, dtype=np.int8)
        out.initializers[names.y_scale] = np.asarray(
            [y_params.scale], dtype=np.float32)
        out.initializers[names.y_zp] = np.asarray(
            [y_params.zero_point], dtype=np.uint8)

        q_inputs = [x_name, names.x_scale, names.x_zp,
                    names.w, names.w_scale, names.w_zp,
                    names.y_scale, names.y_zp]
        if len(node.inputs) > 2 and node.inputs[2]:
            bias = out.initializers.get(node.inputs[2])
            if bias is None:
                skipped += 1
                new_nodes.append(node)
                continue
            bias_q = np.round(
                bias.astype(np.float64)
                / (x_params.scale * w_scales.astype(np.float64))
            ).astype(np.int32)
            out.initializers[names.bias] = bias_q
            q_inputs.append(names.bias)

        x_q = quantized_inputs.get(x_name)
        if x_q is None:
            x_q = fresh("xq")
            new_nodes.append(Node(
                "QuantizeLinear", [x_name, names.x_scale, names.x_zp], [x_q],
                name=fresh("quant")))
            quantized_inputs[x_name] = x_q
        y_q = fresh("yq")
        q_inputs[0] = x_q
        new_nodes.append(Node(
            "QLinearConv", q_inputs, [y_q],
            attrs=node.attrs.as_dict(), name=f"{node.name}_q"))
        new_nodes.append(Node(
            "DequantizeLinear", [y_q, names.y_scale, names.y_zp], [y_name],
            name=fresh("dequant")))
        converted += 1
    out.nodes = new_nodes
    removed, commuted = _grow_regions(out)
    out.prune_initializers()
    out.validate()
    return out, QuantizationReport(
        converted_convs=converted, skipped_convs=skipped,
        removed_roundtrips=removed, commuted_pools=commuted,
        unified_ranges=unified)


class _QNames:
    """Fresh initializer names for one quantized conv."""

    def __init__(self, fresh) -> None:
        self.x_scale = fresh("x_scale")
        self.x_zp = fresh("x_zp")
        self.w = fresh("w_int8")
        self.w_scale = fresh("w_scale")
        self.w_zp = fresh("w_zp")
        self.y_scale = fresh("y_scale")
        self.y_zp = fresh("y_zp")
        self.bias = fresh("bias_int32")


def _grow_regions(graph: Graph) -> tuple[int, int]:
    """Run the boundary passes to a fixed point: (roundtrips, commuted)."""
    from repro.passes.qdq import CancelQDQ, CommuteQDQPooling
    cancel = CancelQDQ()
    commute = CommuteQDQPooling()
    removed = 0
    commuted = 0
    while True:
        cancelled = cancel.apply(graph)
        pulled = commute.apply(graph)
        removed += cancelled
        commuted += pulled
        if not cancelled and not pulled:
            return removed, commuted
