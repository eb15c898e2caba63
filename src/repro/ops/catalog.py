"""The schema catalog: one :class:`OpSchema` per supported operator.

Attribute names, kinds, and defaults follow ONNX opset 13 (plus the
quantization ops, the framework-internal ``activation`` attribute, and
Conv's framework-internal fourth input).
"""

from __future__ import annotations

from repro.ops.registry import AttrKind, AttrSpec, OpSchema, register_op

_I = AttrKind.INT
_F = AttrKind.FLOAT
_S = AttrKind.STRING
_IS = AttrKind.INTS
_T = AttrKind.TENSOR


def _conv_attrs() -> dict[str, AttrSpec]:
    return {
        "kernel_shape": AttrSpec(_IS),
        "strides": AttrSpec(_IS, default=(1, 1)),
        "pads": AttrSpec(_IS, default=(0, 0, 0, 0)),
        "dilations": AttrSpec(_IS, default=(1, 1)),
        "group": AttrSpec(_I, default=1),
        "auto_pad": AttrSpec(_S, default="NOTSET"),
    }


# Conv's inputs are (x, w[, bias[, residual]]). The residual is internal:
# FuseEpilogues moves a following Add's other operand there (bias ``""``
# when absent), and ONNX export rejects a 4-input Conv.
register_op(OpSchema("Conv", 2, 4, attrs=_conv_attrs()))
register_op(OpSchema("QLinearConv", 8, 9, attrs=_conv_attrs()))
register_op(OpSchema("QuantizeLinear", 2, 3, attrs={
    "axis": AttrSpec(_I, default=1)}))
register_op(OpSchema("DequantizeLinear", 2, 3, attrs={
    "axis": AttrSpec(_I, default=1)}))

register_op(OpSchema("Gemm", 2, 3, attrs={
    "alpha": AttrSpec(_F, default=1.0),
    "beta": AttrSpec(_F, default=1.0),
    "transA": AttrSpec(_I, default=0),
    "transB": AttrSpec(_I, default=0),
}))
register_op(OpSchema("MatMul", 2, 2))

register_op(OpSchema("BatchNormalization", 5, 5, max_outputs=1, attrs={
    "epsilon": AttrSpec(_F, default=1e-5),
    "momentum": AttrSpec(_F, default=0.9),
    "spatial": AttrSpec(_I, default=1),
}))


def _pool_attrs() -> dict[str, AttrSpec]:
    return {
        "kernel_shape": AttrSpec(_IS, required=True),
        "strides": AttrSpec(_IS),
        "pads": AttrSpec(_IS, default=(0, 0, 0, 0)),
        "dilations": AttrSpec(_IS, default=(1, 1)),
        "ceil_mode": AttrSpec(_I, default=0),
        "auto_pad": AttrSpec(_S, default="NOTSET"),
        "storage_order": AttrSpec(_I, default=0),
        "count_include_pad": AttrSpec(_I, default=0),
    }


register_op(OpSchema("MaxPool", 1, 1, attrs=_pool_attrs()))
register_op(OpSchema("AveragePool", 1, 1, attrs=_pool_attrs()))
register_op(OpSchema("GlobalAveragePool", 1, 1))

for _name in ("Relu", "Sigmoid", "Tanh", "Identity", "Exp", "Sqrt", "Neg",
              "Abs"):
    register_op(OpSchema(_name, 1, 1))
register_op(OpSchema("LeakyRelu", 1, 1, attrs={
    "alpha": AttrSpec(_F, default=0.01)}))
register_op(OpSchema("Clip", 1, 3, attrs={
    "min": AttrSpec(_F), "max": AttrSpec(_F)}))
register_op(OpSchema("Softmax", 1, 1, attrs={
    "axis": AttrSpec(_I, default=-1)}))
register_op(OpSchema("Dropout", 1, 3, max_outputs=2, attrs={
    "ratio": AttrSpec(_F, default=0.5), "seed": AttrSpec(_I)}))

for _name in ("Add", "Sub", "Mul", "Div", "Pow", "Max", "Min"):
    register_op(OpSchema(_name, 2, 2))

register_op(OpSchema("Concat", 1, 64, attrs={
    "axis": AttrSpec(_I, required=True)}))
register_op(OpSchema("Flatten", 1, 1, attrs={"axis": AttrSpec(_I, default=1)}))
register_op(OpSchema("Reshape", 1, 2, attrs={
    "shape": AttrSpec(_IS), "allowzero": AttrSpec(_I, default=0)}))
register_op(OpSchema("Transpose", 1, 1, attrs={"perm": AttrSpec(_IS)}))
register_op(OpSchema("Pad", 1, 3, attrs={
    "mode": AttrSpec(_S, default="constant"),
    "pads": AttrSpec(_IS),
    "value": AttrSpec(_F, default=0.0),
}))
register_op(OpSchema("Squeeze", 1, 2, attrs={"axes": AttrSpec(_IS)}))
register_op(OpSchema("Unsqueeze", 1, 2, attrs={"axes": AttrSpec(_IS)}))
register_op(OpSchema("ReduceMean", 1, 1, attrs={
    "axes": AttrSpec(_IS), "keepdims": AttrSpec(_I, default=1)}))
register_op(OpSchema("Constant", 0, 0, attrs={
    "value": AttrSpec(_T, required=True)}))
register_op(OpSchema("Shape", 1, 1))
register_op(OpSchema("Slice", 1, 5, attrs={
    "starts": AttrSpec(_IS), "ends": AttrSpec(_IS),
    "axes": AttrSpec(_IS), "steps": AttrSpec(_IS)}))
register_op(OpSchema("Gather", 2, 2, attrs={
    "axis": AttrSpec(_I, default=0)}))
