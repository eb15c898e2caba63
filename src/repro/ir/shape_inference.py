"""Static shape inference over the IR.

Each supported operator registers a shape function; :func:`infer_node`
types one node's outputs from the types defined so far, and
:func:`infer_shapes` runs it over a graph in topological order, returning
the shape and dtype of every value. Unknown (symbolic) dimensions are
represented as ``-1`` and flow through ops that merely carry them (e.g. the
batch dimension); ops that must *compute* with an unknown dimension raise
:class:`~repro.errors.ShapeInferenceError`.

This is also the single source of truth the executor uses to validate kernel
outputs and the memory planner uses to size buffers.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.errors import ShapeInferenceError, UnsupportedOpError
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.tensor.dtype import DType

Shape = tuple[int, ...]
ValueType = tuple[Shape, DType]
ShapeFn = Callable[[Node, list[ValueType], "InferenceContext"], list[ValueType]]

_SHAPE_FNS: dict[str, ShapeFn] = {}


class InferenceContext:
    """Gives shape functions access to constant values (e.g. Reshape targets)."""

    def __init__(self, graph: Graph) -> None:
        self._constants: dict[str, np.ndarray] = dict(graph.initializers)
        for node in graph.nodes:
            if node.op_type == "Constant":
                self._constants[node.outputs[0]] = node.attrs.get_tensor("value")

    def constant_value(self, name: str) -> np.ndarray | None:
        """The compile-time value of ``name``, if it is a constant."""
        return self._constants.get(name)

    def add_constant(self, name: str, value: np.ndarray) -> None:
        """Register ``name``'s compile-time value (graphs built incrementally)."""
        self._constants[name] = value


def register_shape_fn(op_type: str) -> Callable[[ShapeFn], ShapeFn]:
    """Class of decorators registering the shape function for ``op_type``."""

    def decorator(fn: ShapeFn) -> ShapeFn:
        if op_type in _SHAPE_FNS:
            raise ValueError(f"duplicate shape function for {op_type!r}")
        _SHAPE_FNS[op_type] = fn
        return fn

    return decorator


def has_shape_fn(op_type: str) -> bool:
    return op_type in _SHAPE_FNS


def supported_ops() -> list[str]:
    """All op types with registered shape inference (= the runtime op set)."""
    return sorted(_SHAPE_FNS)


def infer_node(
    node: Node, values: Mapping[str, ValueType], ctx: InferenceContext
) -> list[ValueType]:
    """Output (shape, dtype) of one node, given the types defined so far.

    ``values`` must hold every value ``node`` reads; ``ctx`` every constant
    among them. This is the per-node step of :func:`infer_shapes`, and what
    :class:`~repro.ir.builder.GraphBuilder` calls once per appended node.

    Raises:
        UnsupportedOpError: the op type has no registered shape function.
        ShapeInferenceError: an input's type is unknown, or operator
            constraints are violated.
    """
    fn = _SHAPE_FNS.get(node.op_type)
    if fn is None:
        raise UnsupportedOpError(
            f"no shape inference for op {node.op_type!r} (node {node.name!r})"
        )
    input_types = []
    for inp in node.inputs:
        if not inp:
            input_types.append(((), DType.FLOAT32))  # absent optional input
        elif inp in values:
            input_types.append(values[inp])
        else:
            raise ShapeInferenceError(
                f"node {node.name!r} reads value {inp!r} with unknown type"
            )
    try:
        output_types = fn(node, input_types, ctx)
    except ShapeInferenceError:
        raise
    except Exception as exc:
        raise ShapeInferenceError(
            f"shape inference failed for node {node.name!r} "
            f"({node.op_type}): {exc}"
        ) from exc
    if len(output_types) != len(node.outputs):
        raise ShapeInferenceError(
            f"node {node.name!r}: shape fn returned {len(output_types)} "
            f"outputs, node declares {len(node.outputs)}"
        )
    return output_types


def infer_shapes(graph: Graph) -> dict[str, ValueType]:
    """Infer (shape, dtype) for every value in ``graph``.

    Raises:
        UnsupportedOpError: a node's op type has no registered shape function.
        ShapeInferenceError: operator constraints are violated.
    """
    ctx = InferenceContext(graph)
    values: dict[str, ValueType] = {}
    for info in graph.inputs:
        values[info.name] = (info.shape, info.dtype)
    for name, array in graph.initializers.items():
        values[name] = (tuple(array.shape), DType.from_numpy(array.dtype))
    for node in graph.toposort():
        values.update(zip(node.outputs, infer_node(node, values, ctx)))
    return values


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _fail(node: Node, message: str) -> ShapeInferenceError:
    return ShapeInferenceError(f"node {node.name!r} ({node.op_type}): {message}")


def _require_rank(node: Node, shape: Shape, rank: int, what: str) -> None:
    if len(shape) != rank:
        raise _fail(node, f"{what} must have rank {rank}, got shape {shape}")


def _conv_dim(size: int, kernel: int, stride: int, pad: int, dilation: int) -> int:
    """Output size of one spatial dimension; -1 propagates."""
    if size == -1:
        return -1
    effective = dilation * (kernel - 1) + 1
    out = (size + pad - effective) // stride + 1
    if out <= 0:
        raise ShapeInferenceError(
            f"non-positive spatial output ({out}) for size={size} kernel={kernel} "
            f"stride={stride} pad={pad} dilation={dilation}"
        )
    return out


def resolve_conv_pads(
    node: Node, spatial: Sequence[int], kernel: Sequence[int],
    strides: Sequence[int], dilations: Sequence[int],
) -> tuple[int, ...]:
    """Resolve the ONNX ``auto_pad``/``pads`` attributes to explicit pads.

    Returns pads in ONNX order: ``(begin_0, ..., begin_n, end_0, ..., end_n)``.
    """
    rank = len(kernel)
    auto_pad = node.attrs.get_str("auto_pad", "NOTSET")
    if auto_pad in ("NOTSET", ""):
        pads = node.attrs.get_ints("pads", (0,) * (2 * rank))
        if len(pads) != 2 * rank:
            raise _fail(node, f"pads must have {2 * rank} entries, got {pads}")
        return pads
    if auto_pad == "VALID":
        return (0,) * (2 * rank)
    if auto_pad in ("SAME_UPPER", "SAME_LOWER"):
        begins: list[int] = []
        ends: list[int] = []
        for size, k, s, d in zip(spatial, kernel, strides, dilations):
            if size == -1:
                raise _fail(node, "SAME padding needs concrete spatial dims")
            out = math.ceil(size / s)
            total = max(0, (out - 1) * s + d * (k - 1) + 1 - size)
            small, big = total // 2, total - total // 2
            if auto_pad == "SAME_UPPER":
                begins.append(small)
                ends.append(big)
            else:
                begins.append(big)
                ends.append(small)
        return tuple(begins + ends)
    raise _fail(node, f"unknown auto_pad value {auto_pad!r}")


def broadcast_shapes(node: Node, a: Shape, b: Shape) -> Shape:
    """Numpy-style broadcasting with -1 (unknown) propagation."""
    rank = max(len(a), len(b))
    left = (1,) * (rank - len(a)) + a
    right = (1,) * (rank - len(b)) + b
    out: list[int] = []
    for dim_a, dim_b in zip(left, right):
        if dim_a == dim_b:
            out.append(dim_a)
        elif dim_a == 1:
            out.append(dim_b)
        elif dim_b == 1:
            out.append(dim_a)
        elif -1 in (dim_a, dim_b):
            out.append(-1)
        else:
            raise _fail(node, f"cannot broadcast shapes {a} and {b}")
    return tuple(out)


# ---------------------------------------------------------------------------
# shape functions
# ---------------------------------------------------------------------------


@register_shape_fn("Conv")
def _conv_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (x_shape, x_dtype), (w_shape, _w_dtype) = inputs[0], inputs[1]
    _require_rank(node, x_shape, 4, "Conv input")
    _require_rank(node, w_shape, 4, "Conv weight")
    batch, in_ch, height, width = x_shape
    out_ch, w_in_ch, kh, kw = w_shape
    kernel = node.attrs.get_ints("kernel_shape", (kh, kw))
    if tuple(kernel) != (kh, kw):
        raise _fail(node, f"kernel_shape {kernel} != weight spatial dims {(kh, kw)}")
    strides = node.attrs.get_ints("strides", (1, 1))
    dilations = node.attrs.get_ints("dilations", (1, 1))
    group = node.attrs.get_int("group", 1)
    if group < 1:
        raise _fail(node, f"group must be >= 1, got {group}")
    if in_ch != -1 and w_in_ch * group != in_ch:
        raise _fail(
            node,
            f"weight expects {w_in_ch * group} input channels "
            f"(C/group={w_in_ch} x group={group}), input has {in_ch}",
        )
    if out_ch % group != 0:
        raise _fail(node, f"output channels {out_ch} not divisible by group {group}")
    pads = resolve_conv_pads(node, (height, width), kernel, strides, dilations)
    out_h = _conv_dim(height, kernel[0], strides[0], pads[0] + pads[2], dilations[0])
    out_w = _conv_dim(width, kernel[1], strides[1], pads[1] + pads[3], dilations[1])
    if len(node.inputs) > 2 and node.inputs[2]:
        bias_shape = inputs[2][0]
        if bias_shape != (out_ch,):
            raise _fail(node, f"bias shape {bias_shape} != ({out_ch},)")
    out_shape = (batch, out_ch, out_h, out_w)
    if len(node.inputs) > 3 and node.inputs[3]:
        residual_shape = inputs[3][0]
        if residual_shape != out_shape:
            raise _fail(node, f"residual shape {residual_shape} != output shape {out_shape}")
    return [(out_shape, x_dtype)]


def _pool_shape(node: Node, inputs: list[ValueType]) -> list[ValueType]:
    (x_shape, x_dtype) = inputs[0]
    _require_rank(node, x_shape, 4, "pool input")
    batch, channels, height, width = x_shape
    kernel = node.attrs.get_ints("kernel_shape")
    strides = node.attrs.get_ints("strides", kernel)
    dilations = node.attrs.get_ints("dilations", (1, 1))
    pads = resolve_conv_pads(node, (height, width), kernel, strides, dilations)
    ceil_mode = node.attrs.get_int("ceil_mode", 0)

    def out_dim(size: int, k: int, s: int, pad: int, d: int) -> int:
        if size == -1:
            return -1
        effective = d * (k - 1) + 1
        raw = (size + pad - effective) / s + 1
        out = math.ceil(raw) if ceil_mode else math.floor(raw)
        if out <= 0:
            raise _fail(node, f"non-positive pooled size {out}")
        return int(out)

    out_h = out_dim(height, kernel[0], strides[0], pads[0] + pads[2], dilations[0])
    out_w = out_dim(width, kernel[1], strides[1], pads[1] + pads[3], dilations[1])
    return [((batch, channels, out_h, out_w), x_dtype)]


@register_shape_fn("MaxPool")
def _maxpool_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    return _pool_shape(node, inputs)


@register_shape_fn("AveragePool")
def _avgpool_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    return _pool_shape(node, inputs)


@register_shape_fn("GlobalAveragePool")
def _gap_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (x_shape, x_dtype) = inputs[0]
    _require_rank(node, x_shape, 4, "GlobalAveragePool input")
    batch, channels = x_shape[0], x_shape[1]
    return [((batch, channels, 1, 1), x_dtype)]


@register_shape_fn("Gemm")
def _gemm_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (a_shape, a_dtype), (b_shape, _b) = inputs[0], inputs[1]
    _require_rank(node, a_shape, 2, "Gemm A")
    _require_rank(node, b_shape, 2, "Gemm B")
    trans_a = node.attrs.get_int("transA", 0)
    trans_b = node.attrs.get_int("transB", 0)
    rows, inner_a = (a_shape[1], a_shape[0]) if trans_a else a_shape
    inner_b, cols = (b_shape[1], b_shape[0]) if trans_b else b_shape
    if -1 not in (inner_a, inner_b) and inner_a != inner_b:
        raise _fail(node, f"inner dims mismatch: {inner_a} vs {inner_b}")
    return [((rows, cols), a_dtype)]


@register_shape_fn("MatMul")
def _matmul_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (a_shape, a_dtype), (b_shape, _b) = inputs[0], inputs[1]
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise _fail(node, f"MatMul needs rank >= 2, got {a_shape} x {b_shape}")
    if -1 not in (a_shape[-1], b_shape[-2]) and a_shape[-1] != b_shape[-2]:
        raise _fail(node, f"inner dims mismatch: {a_shape} x {b_shape}")
    batch = broadcast_shapes(node, a_shape[:-2], b_shape[:-2])
    return [((*batch, a_shape[-2], b_shape[-1]), a_dtype)]


@register_shape_fn("BatchNormalization")
def _bn_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (x_shape, x_dtype) = inputs[0]
    if len(x_shape) < 2:
        raise _fail(node, f"BatchNormalization needs rank >= 2, got {x_shape}")
    channels = x_shape[1]
    for index, what in ((1, "scale"), (2, "bias"), (3, "mean"), (4, "var")):
        shape = inputs[index][0]
        if channels != -1 and shape != (channels,):
            raise _fail(node, f"{what} shape {shape} != ({channels},)")
    return [(x_shape, x_dtype)]


def _unary_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    return [inputs[0]]


for _op in (
    "Relu", "LeakyRelu", "Sigmoid", "Tanh", "Softmax", "Identity", "Exp",
    "Sqrt", "Neg", "Abs",
):
    register_shape_fn(_op)(_unary_shape)


@register_shape_fn("Clip")
def _clip_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    return [inputs[0]]


@register_shape_fn("Dropout")
def _dropout_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    # Inference-mode dropout is the identity; the optional mask output is
    # all-true with the same shape.
    out = [inputs[0]]
    if len(node.outputs) > 1:
        out.append((inputs[0][0], DType.BOOL))
    return out


def _binary_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (a_shape, a_dtype), (b_shape, _b) = inputs[0], inputs[1]
    return [(broadcast_shapes(node, a_shape, b_shape), a_dtype)]


for _op in ("Add", "Sub", "Mul", "Div", "Pow", "Max", "Min"):
    register_shape_fn(_op)(_binary_shape)


@register_shape_fn("Concat")
def _concat_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    axis = node.attrs.get_int("axis")
    first_shape, dtype = inputs[0]
    rank = len(first_shape)
    if not -rank <= axis < rank:
        raise _fail(node, f"axis {axis} out of range for rank {rank}")
    axis %= rank
    total = 0
    for shape, _dt in inputs:
        if len(shape) != rank:
            raise _fail(node, f"rank mismatch in Concat: {first_shape} vs {shape}")
        for dim in range(rank):
            if dim == axis:
                continue
            if -1 not in (shape[dim], first_shape[dim]) and shape[dim] != first_shape[dim]:
                raise _fail(node, f"non-axis dims differ: {first_shape} vs {shape}")
        total = -1 if (total == -1 or shape[axis] == -1) else total + shape[axis]
    out = list(first_shape)
    out[axis] = total
    return [(tuple(out), dtype)]


@register_shape_fn("Flatten")
def _flatten_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (shape, dtype) = inputs[0]
    axis = node.attrs.get_int("axis", 1)
    rank = len(shape)
    if not -rank <= axis <= rank:
        raise _fail(node, f"axis {axis} out of range for rank {rank}")
    axis %= rank if rank else 1

    def prod(dims: Shape) -> int:
        if -1 in dims:
            return -1
        return int(np.prod(dims, dtype=np.int64)) if dims else 1

    return [((prod(shape[:axis]), prod(shape[axis:])), dtype)]


@register_shape_fn("Reshape")
def _reshape_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (shape, dtype) = inputs[0]
    target = ctx.constant_value(node.inputs[1]) if len(node.inputs) > 1 else None
    if target is None:
        target_attr = node.attrs.get_ints("shape", None) if "shape" in node.attrs else None
        if target_attr is None:
            raise _fail(node, "Reshape target shape is not a compile-time constant")
        target = np.asarray(target_attr, dtype=np.int64)
    target_list = [int(dim) for dim in np.asarray(target).reshape(-1)]
    allowzero = node.attrs.get_int("allowzero", 0)
    out: list[int] = []
    for index, dim in enumerate(target_list):
        if dim == 0 and not allowzero:
            if index >= len(shape):
                raise _fail(node, f"0-dim at index {index} exceeds input rank")
            out.append(shape[index])
        else:
            out.append(dim)
    if out.count(-1) > 1:
        raise _fail(node, f"more than one -1 in reshape target {target_list}")
    if -1 in out and -1 not in shape:
        known = int(np.prod([dim for dim in out if dim != -1], dtype=np.int64))
        total = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if known == 0 or total % known != 0:
            raise _fail(node, f"cannot reshape {shape} to {out}")
        out[out.index(-1)] = total // known
    if -1 not in shape and -1 not in out:
        if int(np.prod(shape, dtype=np.int64) if shape else 1) != int(
            np.prod(out, dtype=np.int64) if out else 1
        ):
            raise _fail(node, f"element count mismatch reshaping {shape} to {tuple(out)}")
    return [(tuple(out), dtype)]


@register_shape_fn("Transpose")
def _transpose_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (shape, dtype) = inputs[0]
    rank = len(shape)
    perm = node.attrs.get_ints("perm", tuple(reversed(range(rank))))
    if sorted(perm) != list(range(rank)):
        raise _fail(node, f"perm {perm} is not a permutation of rank {rank}")
    return [(tuple(shape[axis] for axis in perm), dtype)]


@register_shape_fn("Pad")
def _pad_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (shape, dtype) = inputs[0]
    rank = len(shape)
    if len(node.inputs) > 1 and node.inputs[1]:
        pads_value = ctx.constant_value(node.inputs[1])
        if pads_value is None:
            raise _fail(node, "Pad amounts must be compile-time constants")
        pads = [int(p) for p in np.asarray(pads_value).reshape(-1)]
    else:
        pads = list(node.attrs.get_ints("pads"))
    if len(pads) != 2 * rank:
        raise _fail(node, f"pads must have {2 * rank} entries, got {pads}")
    out = []
    for axis in range(rank):
        dim = shape[axis]
        out.append(-1 if dim == -1 else dim + pads[axis] + pads[axis + rank])
    return [(tuple(out), dtype)]


@register_shape_fn("Squeeze")
def _squeeze_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (shape, dtype) = inputs[0]
    rank = len(shape)
    if len(node.inputs) > 1 and node.inputs[1]:
        axes_value = ctx.constant_value(node.inputs[1])
        if axes_value is None:
            raise _fail(node, "Squeeze axes must be compile-time constants")
        axes = [int(a) % rank for a in np.asarray(axes_value).reshape(-1)]
    elif "axes" in node.attrs:
        axes = [int(a) % rank for a in node.attrs.get_ints("axes")]
    else:
        axes = [axis for axis, dim in enumerate(shape) if dim == 1]
    for axis in axes:
        if shape[axis] not in (1, -1):
            raise _fail(node, f"cannot squeeze axis {axis} of size {shape[axis]}")
    return [(tuple(dim for axis, dim in enumerate(shape) if axis not in set(axes)), dtype)]


@register_shape_fn("Unsqueeze")
def _unsqueeze_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (shape, dtype) = inputs[0]
    if len(node.inputs) > 1 and node.inputs[1]:
        axes_value = ctx.constant_value(node.inputs[1])
        if axes_value is None:
            raise _fail(node, "Unsqueeze axes must be compile-time constants")
        axes = [int(a) for a in np.asarray(axes_value).reshape(-1)]
    else:
        axes = list(node.attrs.get_ints("axes"))
    out_rank = len(shape) + len(axes)
    axes = sorted(axis % out_rank for axis in axes)
    out: list[int] = []
    source = iter(shape)
    for position in range(out_rank):
        out.append(1 if position in axes else next(source))
    return [(tuple(out), dtype)]


@register_shape_fn("ReduceMean")
def _reducemean_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (shape, dtype) = inputs[0]
    rank = len(shape)
    axes = node.attrs.get_ints("axes", tuple(range(rank)))
    axes = tuple(sorted(axis % rank for axis in axes))
    keepdims = node.attrs.get_int("keepdims", 1)
    if keepdims:
        out = tuple(1 if axis in axes else dim for axis, dim in enumerate(shape))
    else:
        out = tuple(dim for axis, dim in enumerate(shape) if axis not in axes)
    return [(out, dtype)]


@register_shape_fn("Constant")
def _constant_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    value = node.attrs.get_tensor("value")
    return [(tuple(value.shape), DType.from_numpy(value.dtype))]


@register_shape_fn("Shape")
def _shape_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (shape, _dtype) = inputs[0]
    return [((len(shape),), DType.INT64)]


def _constant_ints(ctx: InferenceContext, node: Node, index: int,
                   what: str) -> list[int] | None:
    """Read an optional int-tensor input that must be compile-time constant."""
    if len(node.inputs) <= index or not node.inputs[index]:
        return None
    value = ctx.constant_value(node.inputs[index])
    if value is None:
        raise _fail(node, f"{what} must be a compile-time constant")
    return [int(v) for v in np.asarray(value).reshape(-1)]


@register_shape_fn("Slice")
def _slice_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (shape, dtype) = inputs[0]
    rank = len(shape)
    starts = _constant_ints(ctx, node, 1, "Slice starts")
    ends = _constant_ints(ctx, node, 2, "Slice ends")
    if starts is None or ends is None:
        starts = list(node.attrs.get_ints("starts"))
        ends = list(node.attrs.get_ints("ends"))
    axes = _constant_ints(ctx, node, 3, "Slice axes")
    if axes is None:
        axes = list(node.attrs.get_ints("axes", tuple(range(len(starts)))))
    steps = _constant_ints(ctx, node, 4, "Slice steps")
    if steps is None:
        steps = list(node.attrs.get_ints("steps", (1,) * len(starts)))
    if not (len(starts) == len(ends) == len(axes) == len(steps)):
        raise _fail(node, "starts/ends/axes/steps length mismatch")
    out = list(shape)
    for start, end, axis, step in zip(starts, ends, axes, steps):
        axis %= rank
        size = shape[axis]
        if size == -1:
            continue
        if step == 0:
            raise _fail(node, "Slice step of 0")
        # ONNX clamping semantics (same as Python slicing).
        out[axis] = len(range(*slice(start, end, step).indices(size)))
    return [(tuple(out), dtype)]


@register_shape_fn("Gather")
def _gather_shape(node: Node, inputs: list[ValueType], ctx: InferenceContext) -> list[ValueType]:
    (data_shape, dtype) = inputs[0]
    (indices_shape, indices_dtype) = inputs[1]
    if not indices_dtype.is_integer:
        raise _fail(node, f"Gather indices must be integers, got {indices_dtype}")
    rank = len(data_shape)
    axis = node.attrs.get_int("axis", 0) % max(rank, 1)
    out = data_shape[:axis] + indices_shape + data_shape[axis + 1:]
    return [(out, dtype)]

