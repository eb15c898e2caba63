"""Backend conformance kit.

The paper lists, as a contribution, a test suite that provides "ready-made
assistance in the development and integration of new backends". This module
is that assistance as a library: point :func:`check_backend` at any
registered backend (including one you just wrote) and it executes a
canonical battery of operator cases through the backend's kernel choices,
comparing every result against the reference implementations.

    from repro.testing import check_backend
    report = check_backend(my_backend)
    assert report.ok, report.summary()

Used by the built-in backends' own tests and by the ``orpheus conformance``
CLI command.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.backends.backend import Backend
from repro.ir.node import Node
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import REGISTRY


@dataclasses.dataclass(frozen=True)
class ConformanceCase:
    """One operator invocation with concrete shapes."""

    name: str
    op_type: str
    input_shapes: tuple[tuple[int, ...], ...]
    attrs: dict
    input_dtypes: tuple[np.dtype, ...] = ()

    def make_inputs(self, rng: np.random.Generator) -> list[np.ndarray]:
        inputs = []
        for index, shape in enumerate(self.input_shapes):
            dtype = (self.input_dtypes[index]
                     if index < len(self.input_dtypes) else np.dtype(np.float32))
            if np.issubdtype(dtype, np.floating):
                inputs.append(rng.standard_normal(shape).astype(dtype))
            else:
                inputs.append(rng.integers(0, 8, shape).astype(dtype))
        return inputs

    def node(self) -> Node:
        names = [f"in{k}" for k in range(len(self.input_shapes))]
        return Node(self.op_type, names, ["out"], self.attrs, name=self.name)


def _conv_case(name, x, w, with_bias=True, **attrs) -> ConformanceCase:
    base = {"kernel_shape": w[2:], "strides": (1, 1),
            "pads": (w[2] // 2, w[3] // 2, w[2] // 2, w[3] // 2),
            "dilations": (1, 1), "group": 1}
    base.update(attrs)
    shapes = (x, w) + (((w[0],),) if with_bias else ())
    return ConformanceCase(name, "Conv", shapes, base)


#: The canonical battery: every op family, including the corner geometries
#: that historically break new kernels (stride, dilation, asymmetry, groups).
STANDARD_CASES: tuple[ConformanceCase, ...] = (
    _conv_case("conv-3x3", (1, 4, 9, 9), (6, 4, 3, 3)),
    _conv_case("conv-1x1", (2, 8, 5, 5), (4, 8, 1, 1), with_bias=False),
    _conv_case("conv-5x5", (1, 3, 11, 11), (2, 3, 5, 5)),
    _conv_case("conv-stride2", (1, 4, 9, 9), (4, 4, 3, 3), strides=(2, 2)),
    _conv_case("conv-dilated", (1, 2, 12, 12), (2, 2, 3, 3),
               dilations=(2, 2), pads=(2, 2, 2, 2)),
    _conv_case("conv-asym-kernel", (1, 2, 7, 9), (3, 2, 1, 5),
               pads=(0, 2, 0, 2), with_bias=False),
    _conv_case("conv-asym-pads", (1, 2, 6, 6), (2, 2, 3, 3),
               pads=(0, 1, 2, 1), with_bias=False),
    ConformanceCase("conv-depthwise", "Conv",
                    ((1, 6, 8, 8), (6, 1, 3, 3), (6,)),
                    {"kernel_shape": (3, 3), "strides": (1, 1),
                     "pads": (1, 1, 1, 1), "dilations": (1, 1), "group": 6}),
    ConformanceCase("conv-grouped", "Conv",
                    ((1, 8, 6, 6), (4, 4, 3, 3)),
                    {"kernel_shape": (3, 3), "strides": (1, 1),
                     "pads": (1, 1, 1, 1), "dilations": (1, 1), "group": 2}),
    ConformanceCase("maxpool-3x3s2", "MaxPool", ((1, 4, 9, 9),),
                    {"kernel_shape": (3, 3), "strides": (2, 2),
                     "pads": (1, 1, 1, 1)}),
    ConformanceCase("maxpool-ceil", "MaxPool", ((1, 2, 5, 5),),
                    {"kernel_shape": (2, 2), "strides": (2, 2),
                     "ceil_mode": 1}),
    ConformanceCase("avgpool-samepad", "AveragePool", ((1, 3, 8, 8),),
                    {"kernel_shape": (3, 3), "strides": (1, 1),
                     "pads": (1, 1, 1, 1), "count_include_pad": 0}),
    ConformanceCase("gap", "GlobalAveragePool", ((2, 5, 4, 7),), {}),
    ConformanceCase("gemm-transB", "Gemm", ((3, 8), (5, 8), (5,)),
                    {"transB": 1}),
    ConformanceCase("gemm-alphabeta", "Gemm", ((2, 4), (4, 3), (2, 3)),
                    {"alpha": 0.5, "beta": 2.0}),
    ConformanceCase("matmul-batched", "MatMul", ((2, 3, 4), (2, 4, 5)), {}),
    ConformanceCase("batchnorm", "BatchNormalization",
                    ((2, 4, 5, 5), (4,), (4,), (4,), (4,)),
                    {"epsilon": 1e-5}),
    ConformanceCase("relu", "Relu", ((3, 7),), {}),
    ConformanceCase("softmax", "Softmax", ((4, 9),), {"axis": -1}),
    ConformanceCase("add-broadcast", "Add", ((2, 3, 4), (4,)), {}),
    ConformanceCase("concat", "Concat", ((1, 2, 3, 3), (1, 5, 3, 3)),
                    {"axis": 1}),
)


@dataclasses.dataclass(frozen=True)
class CaseResult:
    case: str
    impl: str
    passed: bool
    max_error: float
    message: str = ""


@dataclasses.dataclass(frozen=True)
class ConformanceReport:
    backend: str
    results: tuple[CaseResult, ...]

    @property
    def ok(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> list[CaseResult]:
        return [result for result in self.results if not result.passed]

    def summary(self) -> str:
        passed = sum(result.passed for result in self.results)
        lines = [f"backend {self.backend!r}: {passed}/{len(self.results)} "
                 f"conformance cases passed"]
        for failure in self.failures:
            lines.append(f"  FAIL {failure.case} ({failure.impl}): "
                         f"{failure.message or f'error {failure.max_error:.2e}'}")
        return "\n".join(lines)


def _reference_output(case: ConformanceCase, inputs, node) -> np.ndarray:
    preferred = {
        "Conv": "reference", "MaxPool": "loops", "AveragePool": "loops",
    }.get(case.op_type)
    shapes = [np.asarray(i).shape for i in inputs]
    if preferred is not None:
        impl = REGISTRY.get(case.op_type, preferred)
    else:
        impl = REGISTRY.select(node, shapes)
    return impl.fn(list(inputs), node, ExecutionContext())[0]


def check_backend(
    backend: Backend,
    cases: Sequence[ConformanceCase] = STANDARD_CASES,
    rtol: float = 2e-3,
    atol: float = 2e-4,
    seed: int = 0,
) -> ConformanceReport:
    """Run the conformance battery through ``backend``'s kernel choices."""
    rng = np.random.default_rng(seed)
    results = []
    for case in cases:
        node = case.node()
        inputs = case.make_inputs(rng)
        shapes = [np.asarray(i).shape for i in inputs]
        try:
            impl = backend.select(node, shapes)
        except Exception as exc:
            results.append(CaseResult(
                case=case.name, impl="<selection failed>", passed=False,
                max_error=float("inf"), message=str(exc)))
            continue
        try:
            actual = impl.fn(list(inputs), node,
                             ExecutionContext(gemm=backend.gemm_fn))[0]
            expected = _reference_output(case, inputs, node)
        except Exception as exc:
            results.append(CaseResult(
                case=case.name, impl=impl.name, passed=False,
                max_error=float("inf"), message=f"{type(exc).__name__}: {exc}"))
            continue
        if actual.shape != expected.shape:
            results.append(CaseResult(
                case=case.name, impl=impl.name, passed=False,
                max_error=float("inf"),
                message=f"shape {actual.shape} != {expected.shape}"))
            continue
        error = float(np.max(np.abs(
            actual.astype(np.float64) - expected.astype(np.float64))))
        tolerance = atol + rtol * float(np.max(np.abs(expected)))
        results.append(CaseResult(
            case=case.name, impl=impl.name,
            passed=bool(error <= tolerance), max_error=error))
    return ConformanceReport(backend=backend.name, results=tuple(results))


# -- randomized graph generation ------------------------------------------------------


def random_ir_graph(
    seed: int,
    max_blocks: int = 4,
    image: int = 16,
    channels: int = 8,
    classes: int = 5,
) -> "Graph":
    """A small random-but-valid CNN graph, deterministic in ``seed``.

    The workhorse behind property-based tests (engine round trips, pass
    pipelines): the same seed always yields a bit-identical graph —
    structure *and* weights — so serialization stability can be asserted
    as byte equality, while varying the seed explores residual blocks,
    depthwise convolutions, pooling, and 1x1 projections in random
    combinations.
    """
    from repro.ir.builder import GraphBuilder

    rng = np.random.default_rng(seed)
    builder = GraphBuilder(f"rand-{seed}", seed=seed)
    x = builder.input("input", (1, 3, image, image))
    y = builder.conv_bn_relu(x, channels, 3, pad=1)
    for _ in range(int(rng.integers(1, max_blocks + 1))):
        choice = int(rng.integers(0, 5))
        if choice == 0:
            y = builder.conv_bn_relu(y, channels, 3, pad=1)
        elif choice == 1:
            y = builder.relu(builder.depthwise_conv(y))
        elif choice == 2:
            skip = y
            y = builder.conv(y, channels, 3, pad=1)
            y = builder.relu(builder.add(y, skip))
        elif choice == 3 and builder.shape_of(y)[2] >= 4:
            y = builder.max_pool(y, 2)
        else:
            y = builder.relu(builder.conv(y, channels, 1))
    y = builder.global_average_pool(y)
    y = builder.flatten(y)
    y = builder.dense(y, classes)
    y = builder.softmax(y)
    builder.output(y)
    return builder.finish()
