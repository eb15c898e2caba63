"""DType: numpy and ONNX mappings."""

import re

import numpy as np
import pytest

from repro.tensor.dtype import DType


class TestNumpyMapping:
    def test_float32_roundtrip(self):
        assert DType.from_numpy(np.float32) is DType.FLOAT32
        assert DType.FLOAT32.np == np.dtype(np.float32)

    @pytest.mark.parametrize("dtype", list(DType))
    def test_every_dtype_roundtrips_through_numpy(self, dtype):
        assert DType.from_numpy(dtype.np) is dtype

    def test_unsupported_numpy_dtype_raises(self):
        with pytest.raises(ValueError, match="unsupported numpy dtype"):
            DType.from_numpy(np.complex64)

    @pytest.mark.parametrize("spec", [
        spec
        for dtype in DType
        for spec in (dtype.value, dtype.np, dtype.np.type,
                     dtype.np.newbyteorder(">"), dtype.np.newbyteorder("<"))
    ] + [bool, int, float, "f4", "i8", "=f8", ">i4"])
    def test_every_accepted_spelling_maps_by_name(self, spec):
        assert DType.from_numpy(spec) is DType(np.dtype(spec).name)

    @pytest.mark.parametrize("spec", [
        np.complex64, ">c8", np.uint16, "U4", "S3", object, "datetime64[s]",
        [("a", "f4")],
    ])
    def test_every_other_dtype_raises_the_same_error(self, spec):
        message = f"unsupported numpy dtype: {np.dtype(spec).name!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DType.from_numpy(spec)

    def test_itemsize(self):
        assert DType.FLOAT32.itemsize == 4
        assert DType.FLOAT64.itemsize == 8
        assert DType.INT8.itemsize == 1


class TestOnnxMapping:
    @pytest.mark.parametrize("dtype", list(DType))
    def test_every_dtype_roundtrips_through_onnx(self, dtype):
        assert DType.from_onnx(dtype.onnx_code) is dtype

    def test_float32_is_onnx_code_1(self):
        assert DType.FLOAT32.onnx_code == 1

    def test_unknown_onnx_code_raises(self):
        with pytest.raises(ValueError, match="unsupported ONNX"):
            DType.from_onnx(999)


class TestClassification:
    def test_float_classification(self):
        assert DType.FLOAT32.is_float
        assert DType.FLOAT64.is_float
        assert not DType.INT8.is_float

    def test_integer_classification(self):
        assert DType.INT8.is_integer
        assert DType.INT64.is_integer
        assert not DType.FLOAT32.is_integer
        assert not DType.BOOL.is_integer
