"""Fluent construction of IR graphs.

``GraphBuilder`` generates unique value names, tracks a single "current"
graph, and offers one method per common operator, so model-zoo code reads
like a network definition:

>>> b = GraphBuilder("net")
>>> x = b.input("x", (1, 3, 32, 32))
>>> y = b.relu(b.conv(x, out_channels=16, kernel=3, pad=1))
>>> b.output(b.global_average_pool(y))
>>> graph = b.finish()
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ir.graph import Graph, ValueInfo
from repro.ir.node import Node
from repro.ir.shape_inference import InferenceContext, ValueType, infer_node
from repro.tensor.dtype import DType


def _pair(value: int | Sequence[int]) -> tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    first, second = value
    return (int(first), int(second))


class GraphBuilder:
    """Incrementally builds a validated :class:`Graph`.

    Weight tensors are drawn from a seeded generator so any model built with
    the same seed is bit-identical — the reproducibility requirement for the
    benchmark harness.

    Types are tracked in linear time: inputs and constants record their own
    (shape, dtype), and each appended node is typed once by
    :func:`~repro.ir.shape_inference.infer_node` from the values defined so
    far, so building never re-infers the whole graph.
    """

    def __init__(self, name: str = "graph", seed: int = 0) -> None:
        self._graph = Graph(name=name)
        self._rng = np.random.default_rng(seed)
        self._counter = 0
        self._types: dict[str, ValueType] = {}
        self._ctx = InferenceContext(self._graph)

    # -- naming & values -------------------------------------------------------

    def fresh(self, hint: str) -> str:
        """A graph-unique value name based on ``hint``."""
        self._counter += 1
        return f"{hint}_{self._counter}"

    def input(
        self, name: str, shape: Sequence[int], dtype: DType = DType.FLOAT32
    ) -> str:
        info = ValueInfo(name, tuple(shape), dtype)
        self._graph.inputs.append(info)
        self._types[name] = (info.shape, dtype)
        return name

    def output(self, value: str, dtype: DType = DType.FLOAT32) -> str:
        shape = self._types[value][0] if value in self._types else ()
        self._graph.outputs.append(ValueInfo(value, shape, dtype))
        return value

    def constant(self, array: np.ndarray, hint: str = "const") -> str:
        """Register ``array`` as a named initializer and return the name."""
        name = self.fresh(hint)
        # asarray, not ascontiguousarray: the latter turns a 0-d array into (1,).
        array = np.asarray(array, order="C")
        self._graph.add_initializer(name, array)
        self._types[name] = (array.shape, DType.from_numpy(array.dtype))
        self._ctx.add_constant(name, array)
        return name

    def weight(
        self, shape: Sequence[int], hint: str = "w", scale: float | None = None
    ) -> str:
        """A fresh He-initialised float32 weight initializer."""
        shape = tuple(int(dim) for dim in shape)
        if scale is None:
            fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
            scale = float(np.sqrt(2.0 / max(fan_in, 1)))
        # Scale the float64 draw in place: the same values as ``draw * scale``
        # without a second weight-sized float64 temporary on the heap.
        draw = self._rng.standard_normal(shape)
        draw *= scale
        return self.constant(draw.astype(np.float32), hint)

    def shape_of(self, value: str) -> tuple[int, ...]:
        """Statically known shape of ``value`` (tracked incrementally)."""
        return self._types[value][0]

    # -- generic node ------------------------------------------------------------

    def node(
        self,
        op_type: str,
        inputs: Sequence[str],
        attrs: dict[str, object] | None = None,
        num_outputs: int = 1,
        name: str = "",
    ) -> str | list[str]:
        """Append a node; returns its output name (or names)."""
        outputs = [self.fresh(op_type.lower()) for _ in range(num_outputs)]
        node = self._graph.add_node(
            Node(op_type, list(inputs), outputs, attrs, name=name))
        self._types.update(zip(outputs, infer_node(node, self._types, self._ctx)))
        if op_type == "Constant":
            self._ctx.add_constant(outputs[0], node.attrs.get_tensor("value"))
        return outputs[0] if num_outputs == 1 else outputs

    # -- convolution family --------------------------------------------------------

    def conv(
        self,
        x: str,
        out_channels: int,
        kernel: int | Sequence[int],
        stride: int | Sequence[int] = 1,
        pad: int | Sequence[int] = 0,
        dilation: int | Sequence[int] = 1,
        group: int = 1,
        bias: bool = True,
        name: str = "",
    ) -> str:
        """Conv2d with freshly initialised weights (NCHW / OIHW)."""
        in_channels = self.shape_of(x)[1]
        kh, kw = _pair(kernel)
        if in_channels % group:
            raise ValueError(f"in_channels {in_channels} not divisible by group {group}")
        w = self.weight((out_channels, in_channels // group, kh, kw), hint="conv_w")
        inputs = [x, w]
        if bias:
            inputs.append(self.constant(
                np.zeros(out_channels, dtype=np.float32), hint="conv_b"))
        ph, pw = _pair(pad)
        attrs = {
            "kernel_shape": (kh, kw),
            "strides": _pair(stride),
            "pads": (ph, pw, ph, pw),
            "dilations": _pair(dilation),
            "group": group,
        }
        return self.node("Conv", inputs, attrs, name=name)  # type: ignore[return-value]

    def depthwise_conv(
        self,
        x: str,
        kernel: int | Sequence[int] = 3,
        stride: int | Sequence[int] = 1,
        pad: int | Sequence[int] = 1,
        bias: bool = True,
        name: str = "",
    ) -> str:
        """Depthwise Conv2d: group == in_channels == out_channels."""
        channels = self.shape_of(x)[1]
        return self.conv(
            x, channels, kernel, stride=stride, pad=pad, group=channels,
            bias=bias, name=name,
        )

    def batch_norm(self, x: str, epsilon: float = 1e-5, name: str = "") -> str:
        channels = self.shape_of(x)[1]
        scale = self.constant(
            (1.0 + 0.1 * self._rng.standard_normal(channels)).astype(np.float32),
            hint="bn_scale")
        bias = self.constant(
            (0.1 * self._rng.standard_normal(channels)).astype(np.float32),
            hint="bn_bias")
        mean = self.constant(
            (0.1 * self._rng.standard_normal(channels)).astype(np.float32),
            hint="bn_mean")
        var = self.constant(
            (1.0 + 0.1 * np.abs(self._rng.standard_normal(channels))).astype(np.float32),
            hint="bn_var")
        return self.node(
            "BatchNormalization", [x, scale, bias, mean, var],
            {"epsilon": epsilon}, name=name,
        )  # type: ignore[return-value]

    # -- elementwise / activations ---------------------------------------------------

    def relu(self, x: str, name: str = "") -> str:
        return self.node("Relu", [x], name=name)  # type: ignore[return-value]

    def relu6(self, x: str, name: str = "") -> str:
        return self.node("Clip", [x], {"min": 0.0, "max": 6.0}, name=name)  # type: ignore[return-value]

    def sigmoid(self, x: str, name: str = "") -> str:
        return self.node("Sigmoid", [x], name=name)  # type: ignore[return-value]

    def softmax(self, x: str, axis: int = -1, name: str = "") -> str:
        return self.node("Softmax", [x], {"axis": axis}, name=name)  # type: ignore[return-value]

    def add(self, a: str, b: str, name: str = "") -> str:
        return self.node("Add", [a, b], name=name)  # type: ignore[return-value]

    def concat(self, values: Sequence[str], axis: int = 1, name: str = "") -> str:
        return self.node("Concat", list(values), {"axis": axis}, name=name)  # type: ignore[return-value]

    # -- pooling / shape ---------------------------------------------------------------

    def max_pool(
        self,
        x: str,
        kernel: int | Sequence[int],
        stride: int | Sequence[int] | None = None,
        pad: int | Sequence[int] = 0,
        name: str = "",
    ) -> str:
        kh, kw = _pair(kernel)
        ph, pw = _pair(pad)
        strides = _pair(stride) if stride is not None else (kh, kw)
        attrs = {"kernel_shape": (kh, kw), "strides": strides, "pads": (ph, pw, ph, pw)}
        return self.node("MaxPool", [x], attrs, name=name)  # type: ignore[return-value]

    def average_pool(
        self,
        x: str,
        kernel: int | Sequence[int],
        stride: int | Sequence[int] | None = None,
        pad: int | Sequence[int] = 0,
        count_include_pad: bool = False,
        name: str = "",
    ) -> str:
        kh, kw = _pair(kernel)
        ph, pw = _pair(pad)
        strides = _pair(stride) if stride is not None else (kh, kw)
        attrs = {
            "kernel_shape": (kh, kw),
            "strides": strides,
            "pads": (ph, pw, ph, pw),
            "count_include_pad": int(count_include_pad),
        }
        return self.node("AveragePool", [x], attrs, name=name)  # type: ignore[return-value]

    def global_average_pool(self, x: str, name: str = "") -> str:
        return self.node("GlobalAveragePool", [x], name=name)  # type: ignore[return-value]

    def flatten(self, x: str, axis: int = 1, name: str = "") -> str:
        return self.node("Flatten", [x], {"axis": axis}, name=name)  # type: ignore[return-value]

    def dense(self, x: str, out_features: int, bias: bool = True, name: str = "") -> str:
        """Gemm layer: ``y = x @ W.T + b`` with fresh weights."""
        in_features = self.shape_of(x)[-1]
        w = self.weight((out_features, in_features), hint="fc_w")
        inputs = [x, w]
        if bias:
            inputs.append(self.constant(
                np.zeros(out_features, dtype=np.float32), hint="fc_b"))
        return self.node("Gemm", inputs, {"transB": 1}, name=name)  # type: ignore[return-value]

    def dropout(self, x: str, ratio: float = 0.5, name: str = "") -> str:
        return self.node("Dropout", [x], {"ratio": ratio}, name=name)  # type: ignore[return-value]

    # -- composite blocks (the vocabulary the model zoo uses) -----------------------------

    def conv_bn_relu(
        self,
        x: str,
        out_channels: int,
        kernel: int | Sequence[int],
        stride: int | Sequence[int] = 1,
        pad: int | Sequence[int] = 0,
        group: int = 1,
        name: str = "",
    ) -> str:
        y = self.conv(
            x, out_channels, kernel, stride=stride, pad=pad, group=group,
            bias=False, name=name,
        )
        return self.relu(self.batch_norm(y))

    # -- finish ------------------------------------------------------------------------

    def finish(self) -> Graph:
        """Validate and return the constructed graph."""
        self._graph.validate()
        return self._graph
