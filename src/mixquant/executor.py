"""Reference interpreter for FP32 and mixed-precision graphs.

FP32 kernels use float32 arithmetic with textbook semantics. int8 conv and
gemm run the same kernels on the zero-point-offset int8 input and the int8
weight cast to float64, then requantize with round-half-away-from-zero per
the quantized-conv identity q_out = clamp(round(acc * s_in * s_w / s_out)
+ zp_out). That float64 accumulation is exact integer arithmetic: offset
inputs lie in [-255, 255] and weights in [-127, 127], so every partial sum
is an integer of magnitude at most 255 * 127 * K < 2**53 for K up to
MAX_EXACT_K multiply-adds per output. The remaining int8 kernels evaluate on
dequantized values in float64 and requantize the result, which keeps the
interpreter deterministic on every platform.

A pass runs a batch of images, and every kernel gives each image the same
bits whatever the batch size, so batching never moves a result. Callers feed
batches from `image_batches`, sized so that one pass holds at most
ACTIVATION_BUDGET_BYTES of activations. The executor counts image-passes (a
pass adds its batch size) so callers can verify how many inferences an
analysis actually performed. `capture` names the node ids whose outputs the
trace keeps (True keeps every non-Input node), stored as float32 (int8
outputs are dequantized) so metrics always compare in one domain.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvariantViolation,
    MissingQuantParams,
    NonPositiveVariance,
    ShapeMismatch,
    UnsupportedKind,
)
from .ir import (Graph, Node, QuantParams, Tensor, _conv_out_hw, _pair, infer_shapes,
                 round_half_away, topo_sort)
from .quantizer import dequantize, quantize_affine

# Largest multiply-add count per output for which float64 accumulation of
# offset int8 activations and int8 weights stays exact.
MAX_EXACT_K = (2 ** 53 - 1) // (255 * 127)

# Activation bytes one batched pass may hold. Every node output counts at
# 8 bytes per element, the float64 width the int8 path computes in.
ACTIVATION_BUDGET_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# kernels: float32 for FP32 nodes; conv and gemm also take the float64
# operands of int8 nodes

def _im2col(x: np.ndarray, kh: int, kw: int, stride, padding):
    """Columns (n, c*kh*kw, oh*ow) of the zero-padded input, channel-major."""
    n, c, h, w = x.shape
    (sh, sw), (ph, pw) = stride, padding
    oh, ow = _conv_out_hw(h, w, (kh, kw), stride, padding)
    xp = x
    if ph or pw:
        xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        xp[:, :, ph:ph + h, pw:pw + w] = x
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def kernel_conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                  stride=1, padding=0) -> np.ndarray:
    """Cross-correlation, zero padding, accumulation in the operands' dtype."""
    if x.shape[1] != weight.shape[1]:
        raise ShapeMismatch(f"conv input has {x.shape[1]} channels, weight expects {weight.shape[1]}")
    co, ci, kh, kw = weight.shape
    cols, oh, ow = _im2col(x, kh, kw, _pair(stride), _pair(padding))
    y = np.matmul(weight.reshape(co, ci * kh * kw), cols)
    if bias is not None:
        y = y + bias[:, None]
    return y.reshape(x.shape[0], co, oh, ow)


def kernel_depthwise_conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                            stride=1, padding=0) -> np.ndarray:
    """One 2-D filter per channel (channel multiplier 1): a grouped im2col and
    one batched (C,1,K) @ (C,K,P) matmul."""
    c, m, kh, kw = weight.shape
    if x.shape[1] != c or m != 1:
        raise ShapeMismatch(f"depthwise weight {weight.shape} does not match {x.shape[1]} input channels")
    cols, oh, ow = _im2col(x, kh, kw, _pair(stride), _pair(padding))
    n = x.shape[0]
    y = np.matmul(weight.reshape(c, 1, kh * kw), cols.reshape(n, c, kh * kw, oh * ow))
    y = y.reshape(n, c, oh, ow)
    if bias is not None:
        y = y + bias[None, :, None, None]
    return y


def kernel_batchnorm(x: np.ndarray, gamma, beta, mean, var, eps: float = 1e-5) -> np.ndarray:
    """Per-channel affine normalization using sqrt(var + eps)."""
    for name, p in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        if np.asarray(p).shape != (x.shape[1],):
            raise ShapeMismatch(f"batchnorm {name} has shape {np.asarray(p).shape}, expected ({x.shape[1]},)")
    var = np.asarray(var)
    if np.any(var < 0):
        raise NonPositiveVariance("negative variance in batchnorm")
    shape = (1, -1) + (1,) * (x.ndim - 2)
    scale = (gamma / np.sqrt(var + eps)).reshape(shape)
    return scale * (x - np.asarray(mean).reshape(shape)) + np.asarray(beta).reshape(shape)


def kernel_relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def kernel_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ShapeMismatch(f"add operands {a.shape} vs {b.shape}")
    return a + b


def _pool_windows(x: np.ndarray, kernel, stride, padding, pad_value):
    k = _pair(kernel)
    s = _pair(stride if stride is not None else kernel)
    p = _pair(padding)
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p[0], p[0]), (p[1], p[1])), constant_values=pad_value)
    oh = (h + 2 * p[0] - k[0]) // s[0] + 1
    ow = (w + 2 * p[1] - k[1]) // s[1] + 1
    if oh <= 0 or ow <= 0:
        raise ShapeMismatch(f"pool kernel {k} does not fit {h}x{w} input")
    wins = np.empty((n, c, oh, ow, k[0] * k[1]), dtype=x.dtype)
    for i in range(k[0]):
        for j in range(k[1]):
            wins[..., i * k[1] + j] = xp[:, :, i:i + s[0] * oh:s[0], j:j + s[1] * ow:s[1]]
    return wins


def kernel_maxpool(x: np.ndarray, kernel, stride=None, padding=0) -> np.ndarray:
    neg = np.finfo(x.dtype).min if np.issubdtype(x.dtype, np.floating) else np.iinfo(x.dtype).min
    return _pool_windows(x, kernel, stride, padding, neg).max(axis=-1)


def kernel_avgpool(x: np.ndarray, kernel, stride=None, padding=0) -> np.ndarray:
    return _pool_windows(x, kernel, stride, padding, 0).mean(axis=-1, dtype=x.dtype)


def kernel_global_avgpool(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3), dtype=x.dtype)


def kernel_gemm(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """y = x @ weight.T + bias; weight is (out_features, in_features)."""
    if x.shape[1] != weight.shape[1]:
        raise ShapeMismatch(f"gemm input has K={x.shape[1]}, weight expects K={weight.shape[1]}")
    # one (1, K) @ (K, N) product per row: `x @ weight.T` would take another
    # BLAS path at M > 1 and move results with the batch size
    y = np.matmul(x[:, None, :], weight.T)[:, 0]
    return y + bias if bias is not None else y


def kernel_flatten(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


def kernel_softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax over the last axis."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# int8 kernels

def _requantize(real: np.ndarray, qp: QuantParams, clamp_at_zero: bool = False) -> Tensor:
    q = round_half_away(real / qp.step) + qp.zero_point
    if clamp_at_zero:
        q = np.maximum(q, qp.zero_point)
    return Tensor(np.clip(q, qp.qmin, qp.qmax).astype(np.int8), qp)


def _int_linear(node: Node, x: Tensor) -> Tensor:
    """int8 Conv2d, DepthwiseConv2d and Gemm: the conv and gemm kernels on
    float64 operands, which accumulate exactly, then requantization."""
    in_qp: QuantParams = node.attrs["in_qparams"][0]
    out_qp: QuantParams = node.attrs["out_qparams"]
    wt = node.weights["weight"]
    if wt.qparams is None:
        raise MissingQuantParams(f"{node.id}: weight tensor is not quantized")
    k = wt.data[0].size
    if k > MAX_EXACT_K:
        raise InvariantViolation(f"{node.id}: {k} multiply-adds per output exceed the exact "
                                 f"float64 accumulation bound {MAX_EXACT_K}")
    # offset first so zero-padding is exact
    x64 = np.subtract(x.data, in_qp.zero_point, dtype=np.float64)
    w64 = wt.data.astype(np.float64)
    if node.kind == "Gemm":
        acc = kernel_gemm(x64, w64, None)
    else:
        fn = kernel_conv2d if node.kind == "Conv2d" else kernel_depthwise_conv2d
        acc = fn(x64, w64, None, node.attrs.get("stride", 1), node.attrs.get("padding", 0))
    scale = in_qp.step * wt.qparams.step
    bias = node.weights.get("bias")
    if bias is not None:
        b = round_half_away(bias.data.astype(np.float64) / scale)
        acc = acc + b.reshape((-1,) + (1,) * (acc.ndim - 2))
    return _requantize(acc * scale, out_qp, clamp_at_zero=bool(node.attrs.get("fused_relu")))


def _deq64(t: Tensor) -> np.ndarray:
    return (t.data.astype(np.float64) - t.qparams.zero_point) * t.qparams.step


def _int_pointwise(node: Node, ins: list[Tensor]) -> Tensor:
    """int8 kernels without integer matmuls: evaluate on dequantized float64."""
    out_qp: QuantParams = node.attrs["out_qparams"]
    kind = node.kind
    if kind == "ReLU":
        real = np.maximum(_deq64(ins[0]), 0.0)
    elif kind == "Add":
        real = kernel_add(_deq64(ins[0]), _deq64(ins[1]))
    elif kind == "BatchNorm":
        w = node.weights
        real = kernel_batchnorm(_deq64(ins[0]), w["gamma"].data.astype(np.float64),
                                w["beta"].data.astype(np.float64), w["mean"].data.astype(np.float64),
                                w["var"].data.astype(np.float64), float(node.attrs.get("epsilon", 1e-5)))
    elif kind == "MaxPool":
        real = kernel_maxpool(_deq64(ins[0]), node.attrs["kernel"],
                              node.attrs.get("stride"), node.attrs.get("padding", 0))
    elif kind == "AvgPool":
        real = kernel_avgpool(_deq64(ins[0]), node.attrs["kernel"],
                              node.attrs.get("stride"), node.attrs.get("padding", 0))
    elif kind == "GlobalAvgPool":
        real = kernel_global_avgpool(_deq64(ins[0]))
    else:
        raise UnsupportedKind(f"no int8 kernel for {kind}")
    return _requantize(real, out_qp, clamp_at_zero=bool(node.attrs.get("fused_relu")))


# ---------------------------------------------------------------------------
# graph interpreter

def batch_size(graph: Graph) -> int:
    """Images per pass that keep the graph's activations within
    ACTIVATION_BUDGET_BYTES; at least one."""
    per_image = 8 * sum(math.prod(shape) for shape in infer_shapes(graph).values())
    return max(1, ACTIVATION_BUDGET_BYTES // per_image)


def image_batches(graph: Graph, images: np.ndarray):
    """Consecutive float32 batches of `images`, batch_size(graph) at a time."""
    step = batch_size(graph)
    for start in range(0, images.shape[0], step):
        yield Tensor.f32(images[start:start + step])


@dataclass
class LayerTrace:
    """Float32 outputs of the captured nodes of one pass."""

    outputs: dict[str, Tensor] = field(default_factory=dict)


class Executor:
    """Graph interpreter with an image-pass counter.

    One instance per thread; each completed run_fp32/run_quantized call adds
    its batch size to the counter.
    """

    def __init__(self):
        self.passes = 0

    def run_fp32(self, graph: Graph, inp: Tensor, capture: bool | Iterable[str] = False):
        for n in graph.nodes:
            if n.precision != 32:
                raise InvariantViolation(f"run_fp32 on graph with int8 node {n.id!r}")
        return self._run(graph, inp, capture)

    def run_quantized(self, graph: Graph, inp: Tensor, capture: bool | Iterable[str] = False):
        for n in graph.nodes:
            if n.precision == 8 and "out_qparams" not in n.attrs:
                raise MissingQuantParams(f"int8 node {n.id!r} lacks quantization parameters")
        return self._run(graph, inp, capture)

    def _run(self, graph: Graph, inp: Tensor, capture: bool | Iterable[str]):
        if capture is True:
            capture = [n.id for n in graph.nodes if n.kind != "Input"]
        wanted = set(capture or ())
        values: dict[str, Tensor] = {}
        trace = LayerTrace()
        for nid in topo_sort(graph):
            node = graph.node(nid)
            ins = [values[s] for s in node.inputs]
            t = self._exec_node(graph, node, ins, inp)
            values[nid] = t
            if nid in wanted:
                trace.outputs[nid] = dequantize(t) if t.dtype == "i8" else t
        self.passes += inp.shape[0]
        return values[graph.output_node.id], trace

    def _exec_node(self, graph: Graph, node: Node, ins: list[Tensor], inp: Tensor) -> Tensor:
        kind = node.kind
        if kind == "Input":
            want = tuple(int(d) for d in node.attrs["shape"])
            if inp.shape[1:] != want:
                raise ShapeMismatch(f"input shape {inp.shape[1:]} != model input {want}")
            return inp
        if kind == "Output":
            return ins[0]
        if kind == "Quantize":
            return quantize_affine(ins[0], node.attrs["qparams"])
        if kind == "Dequantize":
            if ins[0].qparams is None:
                raise MissingQuantParams(f"{node.id}: dequantize of non-quantized tensor")
            return dequantize(ins[0], node.attrs["qparams"])

        if node.precision == 8:
            for t in ins:
                if t.dtype != "i8":
                    raise MissingQuantParams(f"{node.id}: int8 node received {t.dtype} input")
            if kind in ("Conv2d", "DepthwiseConv2d", "Gemm"):
                return _int_linear(node, ins[0])
            return _int_pointwise(node, ins)

        x = ins[0].data if ins else None
        if kind in ("Conv2d", "DepthwiseConv2d"):
            fn = kernel_conv2d if kind == "Conv2d" else kernel_depthwise_conv2d
            bias = node.weights.get("bias")
            y = fn(x, node.weights["weight"].data, None if bias is None else bias.data,
                   node.attrs.get("stride", 1), node.attrs.get("padding", 0))
            if node.attrs.get("fused_relu"):
                y = kernel_relu(y)
            return Tensor(y.astype(np.float32))
        if kind == "BatchNorm":
            w = node.weights
            return Tensor(kernel_batchnorm(x, w["gamma"].data, w["beta"].data, w["mean"].data,
                                           w["var"].data, float(node.attrs.get("epsilon", 1e-5))))
        if kind == "ReLU":
            return Tensor(kernel_relu(x))
        if kind == "Add":
            return Tensor(kernel_add(ins[0].data, ins[1].data))
        if kind == "MaxPool":
            return Tensor(kernel_maxpool(x, node.attrs["kernel"], node.attrs.get("stride"),
                                         node.attrs.get("padding", 0)))
        if kind == "AvgPool":
            return Tensor(kernel_avgpool(x, node.attrs["kernel"], node.attrs.get("stride"),
                                         node.attrs.get("padding", 0)))
        if kind == "GlobalAvgPool":
            return Tensor(kernel_global_avgpool(x))
        if kind == "Gemm":
            bias = node.weights.get("bias")
            return Tensor(kernel_gemm(x, node.weights["weight"].data,
                                      None if bias is None else bias.data).astype(np.float32))
        if kind == "Flatten":
            return Tensor(kernel_flatten(x), ins[0].qparams)
        if kind == "Softmax":
            return Tensor(kernel_softmax(x))
        raise UnsupportedKind(f"no kernel for node kind {kind!r}")
