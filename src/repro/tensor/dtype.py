"""Data types supported by the framework.

A small closed set, mirroring what an edge-inference runtime actually ships:
float32 for standard inference, float64 for reference checking, int8/int32
for the quantized path, int64 for shape-carrying tensors, bool for masks.

Each :class:`DType` knows its numpy equivalent and its ONNX ``TensorProto``
data-type code, so the ONNX reader/writer and the kernels share one enum.
"""

from __future__ import annotations

import enum

import numpy as np


class DType(enum.Enum):
    """Framework data type, with numpy and ONNX mappings."""

    FLOAT32 = "float32"
    FLOAT64 = "float64"
    FLOAT16 = "float16"
    INT8 = "int8"
    UINT8 = "uint8"
    INT32 = "int32"
    INT64 = "int64"
    BOOL = "bool"

    @property
    def np(self) -> np.dtype:
        """The equivalent numpy dtype."""
        return np.dtype(self.value)

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return self.np.itemsize

    @property
    def is_float(self) -> bool:
        return self in (DType.FLOAT32, DType.FLOAT64, DType.FLOAT16)

    @property
    def is_integer(self) -> bool:
        return self in (DType.INT8, DType.UINT8, DType.INT32, DType.INT64)

    @property
    def onnx_code(self) -> int:
        """ONNX ``TensorProto.DataType`` enum value."""
        return _TO_ONNX[self]

    @classmethod
    def from_numpy(cls, dtype: np.dtype | type) -> "DType":
        """Map a numpy dtype to a framework DType.

        Raises:
            ValueError: for dtypes outside the supported set.
        """
        try:
            return _FROM_NUMPY[dtype]
        except (KeyError, TypeError):
            pass  # e.g. '>f4' or 'float32': not a key, but may map by name
        name = np.dtype(dtype).name
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unsupported numpy dtype: {name!r}") from None

    @classmethod
    def from_onnx(cls, code: int) -> "DType":
        """Map an ONNX ``TensorProto.DataType`` code to a framework DType.

        Raises:
            ValueError: for codes outside the supported set.
        """
        try:
            return _FROM_ONNX[code]
        except KeyError:
            raise ValueError(f"unsupported ONNX data type code: {code}") from None


# ONNX TensorProto.DataType values (onnx.proto, stable across opsets).
_TO_ONNX: dict[DType, int] = {
    DType.FLOAT32: 1,
    DType.UINT8: 2,
    DType.INT8: 3,
    DType.INT32: 6,
    DType.INT64: 7,
    DType.BOOL: 9,
    DType.FLOAT16: 10,
    DType.FLOAT64: 11,
}
_FROM_ONNX: dict[int, DType] = {code: dt for dt, code in _TO_ONNX.items()}
# Native numpy dtypes and their scalar types, the common arguments of
# ``DType.from_numpy``; anything else maps by name.
_FROM_NUMPY: dict[object, DType] = {
    key: dt for dt in DType for key in (dt.np, dt.np.type)}
