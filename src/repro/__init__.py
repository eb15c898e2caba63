"""Orpheus: a deep learning framework for easy deployment and evaluation of
edge inference.

Python reproduction of the ISPASS 2020 paper by Gibson & Cano
(arXiv:2007.13648). The public API mirrors the paper's design (Figure 1):

* models come in through the ONNX importer (:mod:`repro.onnx`) or the model
  zoo (:mod:`repro.models`);
* the computation graph is simplified (:mod:`repro.passes`);
* layers are executed by runtime-selectable kernel implementations
  (:mod:`repro.kernels`) chosen by a backend (:mod:`repro.backends`);
* :class:`~repro.runtime.session.InferenceSession` ties it together, and
  :mod:`repro.bench` reproduces the paper's experiments.
"""

from repro.backends import Backend, get_backend, list_backends, register_backend
from repro.config import RuntimeConfig
from repro.errors import OrpheusError
from repro.ir import Graph, GraphBuilder, Node, ValueInfo
from repro.quant import qops as _qops  # noqa: F401  (register quantized ops)
from repro.runtime import InferenceSession
from repro.tensor import DType

__version__ = "1.0.0"

__all__ = [
    "Backend",
    "DType",
    "Graph",
    "GraphBuilder",
    "InferenceSession",
    "Node",
    "OrpheusError",
    "RuntimeConfig",
    "ValueInfo",
    "__version__",
    "get_backend",
    "list_backends",
    "register_backend",
]
