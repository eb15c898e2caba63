"""Post-training int8 quantization (extension beyond the paper's evaluation)."""

from repro.quant import qops  # noqa: F401  (registers quantized kernels)
from repro.quant.auto import auto_quantize, synthetic_calibration_feeds
from repro.quant.observers import (
    MinMaxObserver,
    PercentileObserver,
    QuantParams,
    activation_params,
    weight_params_per_channel,
)
from repro.quant.quantize import QuantizationReport, calibrate, quantize_graph

__all__ = [
    "MinMaxObserver",
    "PercentileObserver",
    "QuantParams",
    "QuantizationReport",
    "activation_params",
    "auto_quantize",
    "calibrate",
    "synthetic_calibration_feeds",
    "quantize_graph",
    "weight_params_per_channel",
]
