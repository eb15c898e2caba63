"""Independent float64 oracle for the zoo models.

A second, deliberately different implementation of the operators the
benchmark's models use, evaluated over the *unoptimised* zoo graph: it
reads the graph's nodes, attributes and weights and nothing else of the
program — no kernel, pass or runtime code — so a bug those layers share
cannot also be in the expected values. Convolution accumulates one matrix
product per filter tap (the program packs columns and makes one product),
everything is float64, and the whole image pool goes through as one batch
(the operators are all per-sample, so a sample's expected output does not
depend on its batch companions).

The `reference` backend cannot play this part: it needs minutes per image.
"""

from __future__ import annotations

import os

import numpy as np

#: Comparison rule: ``max|got - want| <= REL_TOL * max|want| + ABS_TOL``.
REL_TOL = 1e-3
ABS_TOL = 1e-6
#: Images evaluated per pass: bounds the float64 working set.
_CHUNK = 4


def _pad_hw(x: np.ndarray, pads: tuple[int, ...], value: float) -> np.ndarray:
    top, left, bottom, right = pads
    if not any(pads):
        return x
    return np.pad(x, ((0, 0), (0, 0), (top, bottom), (left, right)),
                  constant_values=value)


def _taps(x: np.ndarray, kernel, strides, dilations, out_hw):
    """Yield ``(kh, kw, window)``: the strided input slice under each tap."""
    (out_h, out_w), (s_h, s_w), (d_h, d_w) = out_hw, strides, dilations
    for kh in range(kernel[0]):
        for kw in range(kernel[1]):
            top, left = kh * d_h, kw * d_w
            yield kh, kw, x[:, :, top:top + s_h * (out_h - 1) + 1:s_h,
                            left:left + s_w * (out_w - 1) + 1:s_w]


def _out_hw(x: np.ndarray, kernel, strides, dilations) -> tuple[int, int]:
    return tuple(
        (x.shape[2 + axis] - dilations[axis] * (kernel[axis] - 1) - 1)
        // strides[axis] + 1 for axis in (0, 1))


def _window_attrs(node):
    attrs = node.attrs
    if attrs.get_str("auto_pad", "NOTSET") != "NOTSET" \
            or attrs.get_int("ceil_mode", 0):
        raise NotImplementedError(
            f"oracle: auto_pad/ceil_mode on {node.name!r}")
    kernel = attrs.get_ints("kernel_shape")
    return (kernel, attrs.get_ints("strides", (1, 1)),
            attrs.get_ints("pads", (0, 0, 0, 0)),
            attrs.get_ints("dilations", (1, 1)))


def _conv(node, x, w, b=None):
    kernel, strides, pads, dilations = _window_attrs(node)
    group = node.attrs.get_int("group", 1)
    x = _pad_hw(x, pads, 0.0)
    out_hw = _out_hw(x, kernel, strides, dilations)
    out_ch, in_per_group = w.shape[0], w.shape[1]
    out_per_group = out_ch // group
    out = np.zeros((x.shape[0], out_ch, out_hw[0] * out_hw[1]))
    for kh, kw, window in _taps(x, kernel, strides, dilations, out_hw):
        window = window.reshape(*window.shape[:2], -1)      # (N, C, P)
        if in_per_group == 1 and out_per_group == 1:        # depthwise
            out += window * w[:, 0, kh, kw][None, :, None]
            continue
        for g in range(group):
            rows = slice(g * out_per_group, (g + 1) * out_per_group)
            cols = slice(g * in_per_group, (g + 1) * in_per_group)
            # (O, C) @ (N, C, P) -> (N, O, P), one product per sample
            out[:, rows] += w[rows, :, kh, kw] @ window[:, cols]
    out = out.reshape(x.shape[0], out_ch, *out_hw)
    if b is not None:
        out += b[None, :, None, None]
    return out


def _max_pool(node, x):
    kernel, strides, pads, dilations = _window_attrs(node)
    x = _pad_hw(x, pads, -np.inf)
    out_hw = _out_hw(x, kernel, strides, dilations)
    out = np.full((*x.shape[:2], *out_hw), -np.inf)
    for _kh, _kw, window in _taps(x, kernel, strides, dilations, out_hw):
        np.maximum(out, window, out=out)
    return out


def _average_pool(node, x):
    kernel, strides, pads, dilations = _window_attrs(node)
    ones = _pad_hw(np.ones((1, 1, *x.shape[2:])), pads,
                   1.0 if node.attrs.get_int("count_include_pad", 0) else 0.0)
    x = _pad_hw(x, pads, 0.0)
    out_hw = _out_hw(x, kernel, strides, dilations)
    total = np.zeros((*x.shape[:2], *out_hw))
    count = np.zeros((1, 1, *out_hw))
    for (_kh, _kw, window), (_, _, live) in zip(
            _taps(x, kernel, strides, dilations, out_hw),
            _taps(ones, kernel, strides, dilations, out_hw)):
        total += window
        count += live
    return total / count


def _batch_norm(node, x, scale, bias, mean, var):
    shape = (1, -1) + (1,) * (x.ndim - 2)
    eps = node.attrs.get_float("epsilon", 1e-5)
    return ((x - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + eps)
            * scale.reshape(shape) + bias.reshape(shape))


def _clip(node, x, low=None, high=None):
    if low is None and "min" in node.attrs:
        low = node.attrs.get_float("min")
    if high is None and "max" in node.attrs:
        high = node.attrs.get_float("max")
    return np.clip(x, low, high)


def _gemm(node, a, b, c=None):
    attrs = node.attrs
    a = a.T if attrs.get_int("transA", 0) else a
    b = b.T if attrs.get_int("transB", 0) else b
    out = attrs.get_float("alpha", 1.0) * (a @ b)
    return out if c is None else out + attrs.get_float("beta", 1.0) * c


def _softmax(node, x):
    axis = node.attrs.get_int("axis", -1)
    shifted = np.exp(x - x.max(axis=axis, keepdims=True))
    return shifted / shifted.sum(axis=axis, keepdims=True)


def _flatten(node, x):
    axis = node.attrs.get_int("axis", 1)
    return x.reshape(int(np.prod(x.shape[:axis])), -1)


_OPS = {
    "Conv": _conv,
    "BatchNormalization": _batch_norm,
    "Relu": lambda node, x: np.maximum(x, 0.0),
    "Clip": _clip,
    "Add": lambda node, a, b: a + b,
    "MaxPool": _max_pool,
    "AveragePool": _average_pool,
    "GlobalAveragePool": lambda node, x: x.mean(axis=(2, 3), keepdims=True),
    "Concat": lambda node, *xs: np.concatenate(
        xs, axis=node.attrs.get_int("axis", 1)),
    "Flatten": _flatten,
    "Gemm": _gemm,
    "Softmax": _softmax,
}


def evaluate(graph, batch: np.ndarray) -> np.ndarray:
    """The graph's (single) output for ``batch``, in float64.

    ``batch`` may hold any number of samples, whatever batch size the
    graph's input declares.
    """
    values = {name: np.asarray(array, dtype=np.float64)
              for name, array in graph.initializers.items()}
    values[graph.input_names[0]] = np.asarray(batch, dtype=np.float64)
    for node in graph.toposort():
        try:
            op = _OPS[node.op_type]
        except KeyError:
            raise NotImplementedError(
                f"oracle has no {node.op_type!r} (node {node.name!r})") from None
        inputs = [values[name] if name else None for name in node.inputs]
        values[node.outputs[0]] = op(node, *inputs)
    return values[graph.output_names[0]]


def matches(got: np.ndarray, want: np.ndarray) -> bool:
    """The benchmark's correctness rule for one output."""
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape or not np.isfinite(got).all():
        return False
    return bool(np.abs(got - want).max()
                <= REL_TOL * np.abs(want).max() + ABS_TOL)


def expected_outputs(model: str, softmax: bool, images: np.ndarray,
                     cache_path: str) -> np.ndarray:
    """Oracle outputs for ``images``, cached in ``cache_path`` (.npz).

    The cache is keyed by the caller through the file name and guarded by
    a checksum of the images, so a stale file is recomputed, not trusted.
    """
    digest = float(np.asarray(images, dtype=np.float64).sum())
    try:
        with np.load(cache_path) as cached:
            if float(cached["digest"]) == digest \
                    and len(cached["expected"]) == len(images):
                return cached["expected"]
    except (OSError, KeyError, ValueError):
        pass
    from repro import models

    graph = models.build(model, batch=1, softmax=softmax)
    expected = np.concatenate([
        evaluate(graph, images[start:start + _CHUNK])
        for start in range(0, len(images), _CHUNK)])
    os.makedirs(os.path.dirname(cache_path), exist_ok=True)
    scratch = f"{cache_path}.{os.getpid()}.tmp.npz"
    np.savez(scratch, expected=expected, digest=digest)
    os.replace(scratch, cache_path)
    return expected
