"""Tensor layer: the framework's dtypes."""

from repro.tensor.dtype import DType

__all__ = ["DType"]
