"""Reference interpreter for FP32 and mixed-precision graphs.

Every node kind except Input, Output, Quantize and Dequantize has one entry in
a kernel table that both precisions share; the precisions differ only in the
operands they hand the entry and in how they finish its output. FP32 nodes
pass their float32 arrays, apply a fused ReLU through kernel_relu and keep
the float32 result. int8 Conv2d, DepthwiseConv2d and Gemm (a 1x1 conv) pass
the input codes offset by their zero point and the int8 weight, in float32
for K <= MAX_F32_K multiply-adds per output and in float64 up to MAX_EXACT_K.
Offset inputs lie in [-255, 255] and weights in [-127, 127], so every partial
sum is an integer of magnitude at most 255 * 127 * K < 2**24 or 2**53: exact
in any summation order. The accumulator is widened to float64, takes the
bias in accumulator units round(b / (s_in * s_w)) and is scaled by s_in * s_w.
The other int8 kinds pass dequantized float64 operands. Every int8 input,
Dequantize's included, is read with the qparams its codes carry; a node
records only the qparams of the codes it writes (`out_qparams` on int8
nodes and Quantize). Every int8 output is requantized once,
q_out = clamp(round(real / s_out) + zp_out) with round-half-away-from-zero,
clamped at the zero point under a fused ReLU, which keeps the interpreter
deterministic on every platform.

A pass runs a batch of images, and every kernel gives each image the same
bits whatever the batch size, so batching never moves a result. A pass
follows the graph's plan: its topological order and, per step, the values
read there for the last time. The plan is cached by the graph's wiring, the
((node id, input ids), ...) tuple, so it never goes stale when a graph is
rewired. A pass frees each value after its last reader; values nothing reads
(the Output) stay. `capture` names the node ids whose outputs the trace keeps
(True keeps every non-Input node), stored as float32 (int8 outputs are
dequantized) so metrics always compare in one domain.

An FP32 pass can pause just before chosen steps and hand a callable the
values live there. A quantized pass can resume from such values: `given`
maps node ids to outputs it then neither computes nor captures, and its plan
is pruned to the nodes that the Output still needs, cached by the wiring and
the given ids. Values that only FP32 nodes computed from the input equal
the paused pass's bit for bit, which is how top1 runs each fusion group's
graph from one FP32 pass per batch. A resumed pass still takes the whole
batch as its input and counts as one pass of it, like any other.

Callers feed batches from `image_batches`, sized by the smallest
`batch_size` of the passes each batch feeds, so that no pass holds more than
ACTIVATION_BUDGET_BYTES. `batch_size` walks the plan over the
inferred shapes and charges an image, at each step, the values live there at
their working width (4 bytes for FP32 outputs, 8 for int8 and Quantize
outputs, which are computed in float64), the captured outputs held so far as
float32, and the step's scratch in the dtype of the node's kernel: window
columns and a padded copy for Conv2d, DepthwiseConv2d, MaxPool and AvgPool,
and an int8 node's input copies. A resumed pass is also charged, at every
step, the values its paused pass holds. An image costs its largest step. The
executor counts image-passes (a pass adds its batch size) so callers can
verify how many inferences an analysis actually performed.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    InvariantViolation,
    MissingQuantParams,
    NonPositiveVariance,
    ShapeMismatch,
    UnsupportedKind,
)
from .ir import (QUANTIZABLE_KINDS, WEIGHTED_KINDS, Graph, Node, QuantParams, Tensor,
                 _conv_out_hw, _pair, _topo_order, _wiring, infer_shapes, round_half_away)
from .quantizer import _requantize, dequantize, quantize_affine

# Largest multiply-add counts per output for which float64 and float32
# accumulation of offset int8 activations and int8 weights stay exact.
MAX_EXACT_K = (2 ** 53 - 1) // (255 * 127)
MAX_F32_K = (2 ** 24 - 1) // (255 * 127)

# Bytes one batched pass may hold at its peak, as batch_size counts them.
ACTIVATION_BUDGET_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# kernels: float32 operands for FP32 nodes and most int8 weighted ones, else float64

def _im2col(x: np.ndarray, kh: int, kw: int, stride, padding, fill=0):
    """Columns (n, c*kh*kw, oh*ow) of the input padded with `fill`, channel-major."""
    n, c, h, w = x.shape
    (sh, sw), (ph, pw) = stride, padding
    oh, ow = _conv_out_hw(h, w, (kh, kw), stride, padding)
    xp = x
    if ph or pw:
        shape = (n, c, h + 2 * ph, w + 2 * pw)  # np.zeros allocates faster than np.full
        xp = np.zeros(shape, x.dtype) if fill == 0 else np.full(shape, fill, x.dtype)
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
        y += bias[:, None]
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
        y += bias[None, :, None, None]
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
    y = x - np.asarray(mean).reshape(shape)
    y *= scale
    y += np.asarray(beta).reshape(shape)
    return y


def kernel_relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def kernel_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ShapeMismatch(f"add operands {a.shape} vs {b.shape}")
    return a + b


def _pool_windows(x: np.ndarray, kernel, stride, padding, fill) -> np.ndarray:
    """Windows (n, c, kh*kw, oh, ow) of the input padded with `fill`."""
    kh, kw = _pair(kernel)
    cols, oh, ow = _im2col(x, kh, kw, _pair(stride if stride is not None else kernel),
                           _pair(padding), fill)
    return cols.reshape(x.shape[0], x.shape[1], kh * kw, oh, ow)


def kernel_maxpool(x: np.ndarray, kernel, stride=None, padding=0) -> np.ndarray:
    neg = np.finfo(x.dtype).min if np.issubdtype(x.dtype, np.floating) else np.iinfo(x.dtype).min
    return _pool_windows(x, kernel, stride, padding, neg).max(axis=2)


def kernel_avgpool(x: np.ndarray, kernel, stride=None, padding=0) -> np.ndarray:
    """Window means, each summed along a contiguous axis: numpy sums a
    contiguous axis pairwise and a strided one in sequence, which round apart."""
    wins = np.ascontiguousarray(np.moveaxis(_pool_windows(x, kernel, stride, padding, 0), 2, -1))
    return wins.mean(axis=-1, dtype=x.dtype)


def kernel_global_avgpool(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3), dtype=x.dtype)


def kernel_flatten(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


def kernel_softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax over the last axis."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# one kernel table for both precisions

# kind -> entry(node, operand arrays, weight arrays by name). The entries name
# the kernels at call time, so rebinding a module-level kernel_* reaches them.
_KERNELS = {
    "Conv2d": lambda n, xs, w: kernel_conv2d(xs[0], w["weight"], w.get("bias"),
                                             n.attrs.get("stride", 1), n.attrs.get("padding", 0)),
    "DepthwiseConv2d": lambda n, xs, w: kernel_depthwise_conv2d(
        xs[0], w["weight"], w.get("bias"), n.attrs.get("stride", 1), n.attrs.get("padding", 0)),
    "BatchNorm": lambda n, xs, w: kernel_batchnorm(xs[0], w["gamma"], w["beta"], w["mean"], w["var"],
                                                   float(n.attrs.get("epsilon", 1e-5))),
    "ReLU": lambda n, xs, w: kernel_relu(xs[0]),
    "Add": lambda n, xs, w: kernel_add(xs[0], xs[1]),
    "MaxPool": lambda n, xs, w: kernel_maxpool(xs[0], n.attrs["kernel"], n.attrs.get("stride"),
                                               n.attrs.get("padding", 0)),
    "AvgPool": lambda n, xs, w: kernel_avgpool(xs[0], n.attrs["kernel"], n.attrs.get("stride"),
                                               n.attrs.get("padding", 0)),
    "GlobalAvgPool": lambda n, xs, w: kernel_global_avgpool(xs[0]),
    # y = x @ weight.T + bias as a 1x1 conv: one (N, K) @ (K, 1) product per
    # image, so every row keeps its batch-1 bits
    "Gemm": lambda n, xs, w: kernel_conv2d(xs[0][:, :, None, None], w["weight"][:, :, None, None],
                                           w.get("bias")).reshape(xs[0].shape[0], -1),
    "Flatten": lambda n, xs, w: kernel_flatten(xs[0]),
    "Softmax": lambda n, xs, w: kernel_softmax(xs[0]),
}


def _deq64(t: Tensor) -> np.ndarray:
    return (t.data.astype(np.float64) - t.qparams.zero_point) * t.qparams.step


# ---------------------------------------------------------------------------
# execution plan and activation budget

@lru_cache(maxsize=256)
def _plan_of(edges: tuple[tuple[str, tuple[str, ...]], ...],
             given: frozenset[str]) -> tuple[tuple[str, tuple[str, ...]], ...]:
    inputs = dict(edges)
    order = _topo_order(edges)
    # walked backwards, each node comes after its readers: it runs when it is
    # not given and is a sink (the Output) or read by a node that runs
    read = {src for _, srcs in edges for src in srcs}
    needed = {nid for nid in order if nid not in read}
    runs = []
    for nid in reversed(order):
        if nid in needed and nid not in given:
            runs.append(nid)
            needed.update(inputs[nid])
    order = runs[::-1]
    # in topological order, each value's last entry names its last reader
    last_reader = {src: nid for nid in order for src in inputs[nid]}
    freed: dict[str, list[str]] = {nid: [] for nid in order}
    for src, nid in last_reader.items():
        freed[nid].append(src)
    return tuple((nid, tuple(freed[nid])) for nid in order)


def _plan(graph: Graph, given: Iterable[str] = ()) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """(node id, values read there for the last time) per step, in topological
    order, over the nodes that the Output needs when the `given` values are
    supplied. Cached by the graph's wiring and the given ids alone, so a
    rewired graph gets a new plan and an equal wiring shares one."""
    return _plan_of(_wiring(graph), frozenset(given))


def live_before(graph: Graph, nid: str) -> tuple[str, ...]:
    """Ids of the values a full pass over `graph` holds just before step `nid`."""
    live: list[str] = []
    for step, last_reads in _plan(graph):
        if step == nid:
            break
        live = [s for s in [*live, step] if s not in last_reads]
    return tuple(live)


def _captured(graph: Graph, capture: bool | Iterable[str]) -> set[str]:
    if capture is True:
        return {n.id for n in graph.nodes if n.kind != "Input"}
    return set(capture or ())


def _operand_dtype(node: Node):
    """The dtype a node's kernel runs in: float32, except float64 for int8
    nodes that are not weighted or whose K passes MAX_F32_K."""
    k = node.weights["weight"].data[0].size if node.kind in WEIGHTED_KINDS else math.inf
    return np.float64 if node.precision == 8 and k > MAX_F32_K else np.float32


def _width(node: Node) -> int:
    """Bytes per element of a node's output while it is live: int8 nodes and
    Quantize requantize it from float64."""
    return 8 if node.precision == 8 or node.kind == "Quantize" else 4


def _scratch(node: Node, shapes: dict[str, tuple[int, ...]]) -> int:
    """Bytes a node allocates only while it runs, in its kernel's dtype: a
    windowed kind's columns and padded copy, and an int8 node's input copies."""
    elems = 0
    if node.kind in ("Conv2d", "DepthwiseConv2d", "MaxPool", "AvgPool"):
        _, c, h, w = shapes[node.inputs[0]]
        kh, kw = (node.weights["weight"].shape[2:] if node.kind in WEIGHTED_KINDS
                  else _pair(node.attrs["kernel"]))
        ph, pw = _pair(node.attrs.get("padding", 0))
        elems += c * kh * kw * math.prod(shapes[node.id][2:]) + c * (h + 2 * ph) * (w + 2 * pw)
    if node.precision == 8:
        elems += sum(math.prod(shapes[s]) for s in node.inputs)
    return elems * np.dtype(_operand_dtype(node)).itemsize


def batch_size(graph: Graph, capture: bool | Iterable[str] = False, given: Iterable[str] = ()) -> int:
    """Images per pass that keep one pass within ACTIVATION_BUDGET_BYTES, at
    least one; the module docstring lists what an image costs. A captured
    FP32 output shares its array with the trace, so it counts once. A pass
    resumed from the `given` values of a paused pass is charged them at every
    step, since the paused pass holds them until the resumed one ends."""
    shapes = infer_shapes(graph)
    wanted = _captured(graph, capture)
    paused = sum(_width(graph.node(s)) * math.prod(shapes[s]) for s in given)
    live: dict[str, int] = {}
    held = per_image = 0
    for nid, last_reads in _plan(graph, given):
        node = graph.node(nid)
        width, size, captured = _width(node), math.prod(shapes[nid]), nid in wanted
        held += 4 * size if captured else 0
        live[nid] = 0 if captured and width == 4 else width * size
        per_image = max(per_image, paused + sum(live.values()) + held + _scratch(node, shapes))
        for s in last_reads:
            live.pop(s, None)  # a given value stays in `paused`
    return max(1, ACTIVATION_BUDGET_BYTES // per_image)


def image_batches(images: np.ndarray, *passes: tuple):
    """Consecutive float32 batches of `images`, sized for the passes that
    each batch feeds, given as batch_size's (graph, capture[, given])
    arguments: the smallest batch_size among them."""
    step = min(batch_size(*p) for p in passes)
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

    def run_fp32(self, graph: Graph, inp: Tensor, capture: bool | Iterable[str] = False,
                 pause: dict[str, Callable[[dict[str, Tensor]], object]] | None = None):
        """One FP32 pass. `pause` maps node ids to callables that the pass
        calls just before those steps, with the values live there."""
        for n in graph.nodes:
            if n.precision != 32:
                raise InvariantViolation(f"run_fp32 on graph with int8 node {n.id!r}")
        return self._run(graph, inp, capture, {}, pause or {})

    def run_quantized(self, graph: Graph, inp: Tensor, capture: bool | Iterable[str] = False,
                      given: dict[str, Tensor] | None = None):
        """One pass over a mixed-precision graph. `given` supplies node
        outputs, which the pass then neither computes nor captures; it runs
        only the nodes the Output still needs. `inp` stays the whole batch."""
        for n in graph.nodes:
            if n.precision == 8 and "out_qparams" not in n.attrs:
                raise MissingQuantParams(f"int8 node {n.id!r} lacks quantization parameters")
        return self._run(graph, inp, capture, given or {}, {})

    def _run(self, graph: Graph, inp: Tensor, capture: bool | Iterable[str], given: dict, pause: dict):
        wanted = _captured(graph, capture)
        values = dict(given)
        trace = LayerTrace()
        for nid, last_reads in _plan(graph, given):
            if nid in pause:
                pause[nid](values)
            node = graph.node(nid)
            t = self._exec_node(graph, node, [values[s] for s in node.inputs], inp)
            values[nid] = t
            if nid in wanted:
                trace.outputs[nid] = dequantize(t) if t.dtype == "i8" else t
            for s in last_reads:
                del values[s]
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
            return quantize_affine(ins[0], node.attrs["out_qparams"])
        if kind == "Dequantize":
            if ins[0].qparams is None:
                raise MissingQuantParams(f"{node.id}: dequantize of non-quantized tensor")
            return dequantize(ins[0])

        relu = bool(node.attrs.get("fused_relu"))
        if node.precision != 8:
            for t in ins:
                if t.qparams is not None:
                    raise MissingQuantParams(f"{node.id}: FP32 node received an int8 input")
            y = _KERNELS[kind](node, [t.data for t in ins], {k: t.data for k, t in node.weights.items()})
            return Tensor((kernel_relu(y) if relu else y).astype(np.float32, copy=False))

        for t in ins:
            if t.dtype != "i8":
                raise MissingQuantParams(f"{node.id}: int8 node received {t.dtype} input")
        if kind not in QUANTIZABLE_KINDS:
            raise UnsupportedKind(f"no int8 kernel for {kind}")
        if kind not in WEIGHTED_KINDS:
            real = _KERNELS[kind](node, [_deq64(t) for t in ins],
                                  {k: t.data.astype(np.float64) for k, t in node.weights.items()})
            return _requantize(real, node.attrs["out_qparams"], relu)

        in_qp: QuantParams = ins[0].qparams
        wt = node.weights["weight"]
        if wt.qparams is None:
            raise MissingQuantParams(f"{node.id}: weight tensor is not quantized")
        if wt.data[0].size > MAX_EXACT_K:
            raise InvariantViolation(f"{node.id}: {wt.data[0].size} multiply-adds per output exceed "
                                     f"the exact float64 accumulation bound {MAX_EXACT_K}")
        scale = in_qp.step * wt.qparams.step
        # offset before padding, so that zero padding stays exact; the offset
        # copy dies with the call
        acc = _KERNELS[kind](node, [np.subtract(ins[0].data, in_qp.zero_point, dtype=_operand_dtype(node))],
                             {"weight": wt.data.astype(_operand_dtype(node))})
        if "bias" in node.weights:  # in accumulator units, which may pass 2**24: added once widened
            bias = round_half_away(node.weights["bias"].data.astype(np.float64) / scale)
            acc = np.add(acc, bias.reshape((-1,) + (1,) * (acc.ndim - 2)), dtype=np.float64)
        else:
            acc = acc.astype(np.float64, copy=False)
        acc *= scale
        return _requantize(acc, node.attrs["out_qparams"], relu)
