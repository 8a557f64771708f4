"""Reference interpreter for FP32 and mixed-precision graphs.

Every node kind except Input, Output, Quantize and Dequantize has one entry in
a table of binders that both precisions share; the precisions differ only in
the operands they hand the bound kernel and in how they finish its output.
FP32 nodes pass their float32 arrays, apply a fused ReLU through kernel_relu
and keep the float32 result. int8 Conv2d, DepthwiseConv2d and Gemm (a 1x1
conv) pass the input codes offset by their zero point and the int8 weight, in
float32 for K <= MAX_F32_K multiply-adds per output and in float64 up to
MAX_EXACT_K. Offset inputs lie in [-255, 255] and weights in [-127, 127], so
every partial sum is an integer of magnitude at most 255 * 127 * K < 2**24 or
2**53: exact in any summation order. The accumulator is widened to float64,
takes the bias in accumulator units round(b / (s_in * s_w)) and is scaled by
s_in * s_w. int8 ReLU and MaxPool run on the codes, as max commutes with the
increasing dequantize (relu(deq(q)) == deq(max(q, zp))); the result indexes a
table, per input qparams, of all 256 codes dequantized in float64 and
requantized. The other int8 kinds pass dequantized float64 operands. Every int8
input, Dequantize's included, is read with the qparams its codes carry; a
node records only the qparams of the codes it writes (`out_qparams` on int8
nodes and Quantize). Which values hold codes follows the rule in ir that
load_model checks too, save that the Input holds what its readers read and
the Output what it reads. Every int8 output is requantized once,
q_out = clamp(round(real / s_out) + zp_out) with round-half-away-from-zero,
clamped at the zero point under a fused ReLU, which keeps the interpreter
deterministic on every platform.

Conv2d, DepthwiseConv2d, AvgPool and Gemm read their input as im2col columns by
a geometry made once per image shape, dtype and window: the batch is padded,
if at all, and its column view copied once (window rows as items at width
stride 1), or not at all for 1x1 stride 1 and Gemm. AvgPool windows that tile
the input are a reshape of it, and MaxPool folds np.maximum over strided views.

A pass runs a batch of images, and every kernel gives each image the same bits
whatever the batch size, so batching never moves a result. A pass follows the
graph's plan: its topological order and, per step, the values read there for
the last time, which it then frees; values nothing reads (the Output) stay.
A pass returns the Output's value. Its `observe` hook maps node ids to
callables, as `pause` does: a step whose id it names hands its output to that
callable at once, int8 codes as they are, before the next step runs and
before the step's last reads are freed. A consumer that folds or scores a
value as it comes holds nothing beyond the pass's own values; one that keeps
it holds it as it came.

A graph's program, made on its first pass and kept in the graph's memo, holds
its shapes at batch 1, its plans, one per set of given ids, and its steps, each
node bound on first use. Once a graph is used its nodes do not change;
`Graph.add`, the one change allowed, empties the memo. Checked once per
program: shapes and windows (infer_shapes), the graph checks of run_fp32 (an
int8 node) and of every pass (a missing `out_qparams`, then each operand's
dtype: codes read as floats or floats as codes), and binding's (negative
variance, an unsupported int8 kind, an unquantized weight, MAX_EXACT_K).
Binding also parses each window into pairs and casts an int8 weighted node's
weight to its kernel's dtype (a float copy held while the graph lives); its
bias in accumulator units is kept per input qparams. Steps and kernels check
nothing. Checked on every pass: the input's and each given value's shape and
kind (codes or float).

An FP32 pass can pause just before chosen steps and hand a callable the values
live there. A quantized pass can resume from such values: `given` maps node
ids to outputs it then neither computes nor observes, and its plan is pruned
to the nodes that the Output still needs. Values that only FP32 nodes computed
from the input equal the paused pass's bit for bit, which is how top1 runs
each fusion group's graph from one FP32 pass per batch. A resumed pass still
takes the whole batch as its input and counts as one pass of it, like any
other.

Callers feed batches from `image_batches`, sized by the smallest `batch_size`
of the passes each batch feeds, so that no pass holds more than
ACTIVATION_BUDGET_BYTES as tracemalloc counts numpy's allocations.
`batch_size` walks the plan over the program's shapes and charges an image,
at each step, what is live before it plus the larger of the step's own peak
(`_step_peak`: its kernel's copies, int8 operand copies and requantize
transients, and its output) and its output with what the consumer allocates
taking it. Live are the values the pass computed and still reads (1 byte per
int8 code, 4 per float), values a paused pass holds for a resumed one, what
the consumer keeps, and values an earlier pass of the batch kept, until this
pass releases them. An image costs its largest step; numpy's ufunc buffers
(8 * getbufsize() bytes) and the pass's Python objects come off the budget
first. The executor counts image-passes (a pass adds its batch size) so
callers can verify how many inferences an analysis actually performed.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from functools import lru_cache

import numpy as np

from .errors import (
    InvariantViolation,
    MissingQuantParams,
    NonPositiveVariance,
    ShapeMismatch,
    UnsupportedKind,
)
from .ir import (QUANTIZABLE_KINDS, WEIGHTED_KINDS, Graph, Node, QuantParams, Tensor, _conv_out_hw,
                 _reads_codes, _window, _writes_codes, infer_shapes, round_half_away, topo_sort)
from .quantizer import _requantize, dequantize, quantize_affine

# Largest multiply-add counts per output for which float64 and float32
# accumulation of offset int8 activations and int8 weights stay exact.
MAX_EXACT_K = (2 ** 53 - 1) // (255 * 127)
MAX_F32_K = (2 ** 24 - 1) // (255 * 127)

# Bytes one batched pass may hold at its peak, as batch_size counts them.
ACTIVATION_BUDGET_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# kernels: float32 operands for FP32 nodes and most int8 weighted ones, else float64

@lru_cache(maxsize=256)
def _geometry(shape, dtype, kernel, stride, padding) -> tuple:
    """im2col geometry per image shape, dtype and window, whatever the batch:
    the padded (c, hp, wp) tail, the interior index (None unpadded), oh, ow,
    and the column view's shape, strides and item (None: the batch itself)."""
    (c, h, w), (kh, kw), (sh, sw), (ph, pw) = shape, kernel, stride, padding
    oh, ow = _conv_out_hw(h, w, kernel, stride, padding)
    hp, wp, size = h + 2 * ph, w + 2 * pw, np.dtype(dtype).itemsize
    interior = (slice(None), slice(None), slice(ph, ph + h), slice(pw, pw + w)) if ph or pw else None
    strides = hp * wp * size, wp * size, size, wp * size * sh  # channel, tap row, tap column, window row
    view = (None if kh * kw == 1 and sh == sw == 1
            # at width stride 1 a window row's ow values lie contiguous: one item each
            else ((c, kh, kw, oh), strides, np.dtype((np.void, ow * size))) if sw == 1
            else ((c, kh, kw, oh, ow), (*strides, size * sw), np.dtype(dtype)))
    return (c, hp, wp), interior, oh, ow, view


def _im2col(x: np.ndarray, kh: int, kw: int, stride, padding):
    """Columns (n, c*kh*kw, oh*ow) of the zero-padded input, channel-major,
    by x's _geometry: the batch padded once, then one strided copy of its
    column view, or the batch itself where that view is contiguous."""
    tail, interior, oh, ow, view = _geometry(x.shape[1:], x.dtype, (kh, kw), stride, padding)
    n = x.shape[0]
    if interior is None:
        xp = np.ascontiguousarray(x)  # a no-op on every input a pass hands over
    else:
        xp = np.zeros((n, *tail), x.dtype)
        xp[interior] = x
    if view is not None:
        shape, strides, item = view
        xp = np.ndarray((n, *shape), item, xp, 0, (xp.strides[0], *strides)).copy().view(x.dtype)
    return xp.reshape(n, -1, oh * ow), oh, ow


def kernel_conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                  stride=(1, 1), padding=(0, 0)) -> np.ndarray:
    """Cross-correlation, zero padding, accumulation in the operands' dtype."""
    co, ci, kh, kw = weight.shape
    cols, oh, ow = _im2col(x, kh, kw, stride, padding)
    y = np.matmul(weight.reshape(co, ci * kh * kw), cols)
    if bias is not None:
        y += bias[:, None]
    return y.reshape(x.shape[0], co, oh, ow)


def kernel_depthwise_conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                            stride=(1, 1), padding=(0, 0)) -> np.ndarray:
    """One 2-D filter per channel (channel multiplier 1): a grouped im2col and
    one batched (C,1,K) @ (C,K,P) matmul."""
    c, _, kh, kw = weight.shape
    cols, oh, ow = _im2col(x, kh, kw, stride, padding)
    n = x.shape[0]
    y = np.matmul(weight.reshape(c, 1, kh * kw), cols.reshape(n, c, kh * kw, oh * ow))
    y = y.reshape(n, c, oh, ow)
    if bias is not None:
        y += bias[None, :, None, None]
    return y


def kernel_batchnorm(x: np.ndarray, gamma, beta, mean, var, eps: float = 1e-5) -> np.ndarray:
    """Per-channel affine normalization using sqrt(var + eps)."""
    shape = (1, -1) + (1,) * (x.ndim - 2)
    scale = (gamma / np.sqrt(var + eps)).reshape(shape)
    y = x - mean.reshape(shape)
    y *= scale
    y += beta.reshape(shape)
    return y


def kernel_relu(x: np.ndarray, zero_point: int = 0) -> np.ndarray:
    return np.maximum(x, zero_point)


def kernel_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def kernel_maxpool(x: np.ndarray, kernel, stride, padding=(0, 0)) -> np.ndarray:
    """Window maxima, the input padded with its dtype's least value."""
    (kh, kw), (sh, sw), (ph, pw), (n, c, h, w) = kernel, stride, padding, x.shape
    oh, ow = _conv_out_hw(h, w, kernel, stride, padding)
    xp = x
    if ph or pw:
        neg = np.finfo(x.dtype).min if np.issubdtype(x.dtype, np.floating) else np.iinfo(x.dtype).min
        xp = np.full((n, c, h + 2 * ph, w + 2 * pw), neg, x.dtype)
        xp[:, :, ph:ph + h, pw:pw + w] = x
    y = xp[:, :, :sh * oh:sh, :sw * ow:sw].copy()
    for t in range(1, kh * kw):  # the other taps, in the (i, j) order of a column reduction
        i, j = divmod(t, kw)
        np.maximum(y, xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw], out=y)
    return y


def _mean(x: np.ndarray, axis, count: int) -> np.ndarray:
    """x.mean(axis, dtype=x.dtype) as numpy's _methods._mean computes it."""
    s = np.add.reduce(x, axis, dtype=x.dtype)
    return np.true_divide(s, np.intp(count), out=s, casting="unsafe")


def kernel_avgpool(x: np.ndarray, kernel, stride, padding=(0, 0)) -> np.ndarray:
    """Window means, each summed along a contiguous axis: numpy sums a
    contiguous axis pairwise and a strided one in sequence, which round apart."""
    (kh, kw), (n, c, h, w) = kernel, x.shape
    if tuple(stride) == (kh, kw) and not any(padding):
        oh, ow = _conv_out_hw(h, w, kernel, stride, padding)
        wins = x[:, :, :oh * kh, :ow * kw].reshape(n, c, oh, kh, ow, kw).transpose(0, 1, 2, 4, 3, 5)
    else:
        cols, oh, ow = _im2col(x, kh, kw, stride, padding)
        wins = cols.reshape(n, c, kh, kw, oh, ow).transpose(0, 1, 4, 5, 2, 3)
    return _mean(np.ascontiguousarray(wins).reshape(n, c, oh, ow, kh * kw), -1, kh * kw)


def kernel_global_avgpool(x: np.ndarray) -> np.ndarray:
    return _mean(x, (2, 3), x.shape[2] * x.shape[3])


def kernel_flatten(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


def kernel_softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax over the last axis."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# one table of binders for both precisions

# kind -> binder(node, weight arrays by name) -> kernel(operand arrays). A
# binder parses the node's window once; its kernel names the kernel_*
# function at call time, so rebinding a module-level kernel_* reaches it.

def _conv(node: Node, w: dict):
    args = w["weight"], w.get("bias"), *_window(node)[1:]  # stride, padding
    if node.kind == "Conv2d":
        return lambda xs: kernel_conv2d(xs[0], *args)
    return lambda xs: kernel_depthwise_conv2d(xs[0], *args)


def _pool(node: Node, w: dict):
    args = _window(node)
    if node.kind == "MaxPool":
        return lambda xs: kernel_maxpool(xs[0], *args)
    return lambda xs: kernel_avgpool(xs[0], *args)


def _batchnorm(node: Node, w: dict):
    if np.any(w["var"] < 0):
        raise NonPositiveVariance(f"{node.id}: negative variance in batchnorm")
    args = w["gamma"], w["beta"], w["mean"], w["var"], float(node.attrs.get("epsilon", 1e-5))
    return lambda xs: kernel_batchnorm(xs[0], *args)


def _gemm(node: Node, w: dict):
    # y = x @ weight.T + bias as a 1x1 conv: one (N, K) @ (K, 1) product per
    # image, so every row keeps its batch-1 bits
    args = w["weight"][:, :, None, None], w.get("bias"), (1, 1), (0, 0)
    return lambda xs: kernel_conv2d(xs[0][:, :, None, None], *args).reshape(xs[0].shape[0], -1)


_KERNELS = {
    "Conv2d": _conv,
    "DepthwiseConv2d": _conv,
    "BatchNorm": _batchnorm,
    "ReLU": lambda n, w: lambda xs: kernel_relu(xs[0]),
    "Add": lambda n, w: lambda xs: kernel_add(xs[0], xs[1]),
    "MaxPool": _pool,
    "AvgPool": _pool,
    "GlobalAvgPool": lambda n, w: lambda xs: kernel_global_avgpool(xs[0]),
    "Gemm": _gemm,
    "Flatten": lambda n, w: lambda xs: kernel_flatten(xs[0]),
    "Softmax": lambda n, w: lambda xs: kernel_softmax(xs[0]),
}


# ---------------------------------------------------------------------------
# execution plan and activation budget

def _plan_of(order: list[str], inputs: dict[str, list[str]],
             given: frozenset[str]) -> tuple[tuple[str, tuple[str, ...]], ...]:
    # walked backwards, each node comes after its readers: it runs when it is
    # not given and is a sink (the Output) or read by a node that runs
    read = {src for srcs in inputs.values() for src in srcs}
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


def live_before(graph: Graph, nid: str) -> tuple[str, ...]:
    """Ids of the values a full pass over `graph` holds just before step `nid`."""
    live: list[str] = []
    for step, last_reads in _program(graph).plan(()):
        if step == nid:
            break
        live = [s for s in [*live, step] if s not in last_reads]
    return tuple(live)


def _operand_dtype(node: Node):
    """The dtype a node's kernel runs in: float32, except float64 for int8
    nodes that are not weighted or whose K passes MAX_F32_K."""
    k = node.weights["weight"].data[0].size if node.kind in WEIGHTED_KINDS else math.inf
    return np.float64 if node.precision == 8 and k > MAX_F32_K else np.float32


def _width(node: Node) -> int:
    """Bytes per element of a node's output while it is live: 1 for int8
    codes, 4 for floats."""
    return 1 if _writes_codes(node) else 4


def _step_peak(node: Node, shapes: dict[str, tuple[int, ...]]) -> int:
    """Bytes per image that a node's step allocates at its peak, its output
    included, beside the operands it reads. `kernel` is the kernel's peak in
    elements of its dtype: the result, with a padded copy and window columns
    where it makes them (AvgPool copies its windows once more, and only that
    when they tile the input)."""
    kind, out = node.kind, math.prod(shapes[node.id])
    if kind in ("Input", "Output", "Flatten"):
        return 0  # the batch itself, or a view of the operand
    if kind == "Quantize":
        return 16 * out  # _requantize's float64 quotient and rounding term
    if kind == "Dequantize":
        return 12 * out  # the codes widened to float64, then the float32 result
    ins = [math.prod(shapes[s]) for s in node.inputs]
    kernel = 3 * out if kind == "Softmax" else out
    if kind == "Gemm":
        kernel = ins[0] + out  # its 1x1 columns copy the input
    elif kind in ("Conv2d", "DepthwiseConv2d", "MaxPool", "AvgPool"):
        _, c, h, w = shapes[node.inputs[0]]
        (kh, kw), stride, (ph, pw) = _window(node)
        win = c * kh * kw * math.prod(shapes[node.id][2:])
        pad = c * (h + 2 * ph) * (w + 2 * pw) if ph or pw else 0
        if kind == "MaxPool":  # folds strided views into its result
            kernel = pad + out
        elif kind == "AvgPool" and tuple(stride) == (kh, kw) and not pad:
            kernel = win + out
        else:
            kernel = max(pad + win, win + out) + (win if kind == "AvgPool" else 0)
    if node.precision != 8:
        return 4 * max(kernel, 2 * out if node.attrs.get("fused_relu") else 0)
    if kind in ("ReLU", "MaxPool"):
        return kernel + 9 * out  # on the codes, then take's intp indices and its output codes
    if kind in WEIGHTED_KINDS:  # the offset input, then the kernel
        operands = np.dtype(_operand_dtype(node)).itemsize * (ins[0] + kernel)
    else:  # each operand widened, offset and scaled in float64, then the kernel
        operands = 8 * (sum(ins) + max(*ins, kernel))
    # then the float64 accumulator and _requantize's quotient and rounding term
    return max(operands, 24 * out)


def batch_size(graph: Graph, given: Iterable[str] = (), keep: Iterable[str] = (),
               compare: tuple[Graph, Iterable[str]] | None = None) -> int:
    """Images per pass that keep one pass within ACTIVATION_BUDGET_BYTES, at
    least one; the module docstring lists what an image costs. The pass's
    consumer is charged for what it does with the values it observes: it may
    `keep` them as they are beyond the pass, or `compare` them with the
    values that an earlier pass of the batch, over the given graph, kept of
    the given ids, each released once compared. A pass resumed from the
    `given` values of a paused pass is charged them at every step, since the
    paused pass holds them until the resumed one ends."""
    program = _program(graph)
    shapes, peaks, stays = program.shapes, program.peaks, set(keep)
    other, ids = compare or (graph, ())
    carried = {s: _width(other.node(s)) * math.prod(_program(other).shapes[s]) for s in ids}
    held = sum(_width(graph.node(s)) * math.prod(shapes[s]) for s in given) + sum(carried.values())
    live: dict[str, int] = {}  # bytes of each live value the pass computed
    per_image = 0
    for nid, last_reads in program.plan(given):
        node = graph.node(nid)
        width, size = _width(node), math.prod(shapes[nid])
        # what the consumer allocates comparing the value: the kept one as
        # float32, then both as float64
        observed = (4 + 8 + 8) * size if nid in carried else 0
        if nid not in peaks:
            peaks[nid] = _step_peak(node, shapes)
        per_image = max(per_image, held + sum(live.values()) + max(peaks[nid], width * size + observed))
        live[nid] = width * size
        held -= carried.pop(nid, 0)
        for s in last_reads:  # a given value is charged in `held` until the pass ends
            if s not in stays:
                live.pop(s, None)
    # numpy's ufunc buffers and the pass's Python objects come off the budget
    return max(1, (ACTIVATION_BUDGET_BYTES - 8 * np.getbufsize()) // per_image)


def image_batches(images: np.ndarray, *sizes: int):
    """Consecutive float32 batches of `images`, as many images each (the last
    may hold fewer) as the smallest of `sizes`, the batch_size of each pass
    that a batch feeds."""
    size = min(sizes)
    for start in range(0, images.shape[0], size):
        yield Tensor.f32(images[start:start + size])


# ---------------------------------------------------------------------------
# step programs: each node bound once per graph

def _bind(node: Node):
    """The node's step, step(pass input, operand tensors) -> output tensor.
    What depends on the node alone is read and checked here, once. A step
    trusts its operands to be codes or floats as the node reads them, which
    the program checks once."""
    kind, nid = node.kind, node.id
    if kind == "Input":
        return lambda inp, ins: inp
    if kind == "Output":
        return lambda inp, ins: ins[0]
    if kind == "Quantize":
        qp = node.attrs["out_qparams"]
        return lambda inp, ins: quantize_affine(ins[0], qp)
    if kind == "Dequantize":
        return lambda inp, ins: dequantize(ins[0])

    relu = bool(node.attrs.get("fused_relu"))
    if node.precision != 8:
        kernel = _KERNELS[kind](node, {k: t.data for k, t in node.weights.items()})

        def step(inp, ins):
            y = kernel([t.data for t in ins])
            return Tensor((kernel_relu(y) if relu else y).astype(np.float32, copy=False))
        return step

    if kind not in QUANTIZABLE_KINDS:
        raise UnsupportedKind(f"no int8 kernel for {kind}")
    out_qp = node.attrs["out_qparams"]
    if kind in ("ReLU", "MaxPool"):
        window = _window(node) if kind == "MaxPool" else None
        tables: dict[QuantParams, np.ndarray] = {}  # code bits as uint8 -> output code, per input qparams

        def step(inp, ins):
            x, qp = ins[0], ins[0].qparams
            table = tables.get(qp)
            if table is None:  # every code, in the order of its bits as uint8
                real = (np.r_[0:128, -128:0].astype(np.float64) - qp.zero_point) * qp.step
                table = tables[qp] = _requantize(real, out_qp, relu).data
            y = kernel_relu(x.data, qp.zero_point) if window is None else kernel_maxpool(x.data, *window)
            return Tensor(table.take(y.view(np.uint8)), out_qp)
        return step
    if kind not in WEIGHTED_KINDS:
        kernel = _KERNELS[kind](node, {k: t.data.astype(np.float64) for k, t in node.weights.items()})

        def step(inp, ins):
            real = kernel([(t.data.astype(np.float64) - t.qparams.zero_point) * t.qparams.step for t in ins])
            return _requantize(real, out_qp, relu)
        return step

    wt = node.weights["weight"]
    if wt.qparams is None:
        raise MissingQuantParams(f"{nid}: weight tensor is not quantized")
    if wt.data[0].size > MAX_EXACT_K:
        raise InvariantViolation(f"{nid}: {wt.data[0].size} multiply-adds per output exceed "
                                 f"the exact float64 accumulation bound {MAX_EXACT_K}")
    dtype, w_step = _operand_dtype(node), wt.qparams.step
    kernel = _KERNELS[kind](node, {"weight": wt.data.astype(dtype)})
    bias = node.weights["bias"].data.astype(np.float64) if "bias" in node.weights else None
    bias_shape = (-1,) if kind == "Gemm" else (-1, 1, 1)
    biases: dict[QuantParams, np.ndarray] = {}  # in accumulator units, per input qparams

    def step(inp, ins):
        x, qp = ins[0], ins[0].qparams
        scale = qp.step * w_step
        # offset before padding, so that zero padding stays exact; the offset
        # copy dies with the call
        acc = kernel([np.subtract(x.data, qp.zero_point, dtype=dtype)])
        if bias is None:
            acc = acc.astype(np.float64, copy=False)
        else:  # in accumulator units, which may pass 2**24: added once widened
            b = biases.get(qp)
            if b is None:
                b = biases[qp] = round_half_away(bias / scale).reshape(bias_shape)
            acc = np.add(acc, b, dtype=np.float64)
        acc *= scale
        return _requantize(acc, out_qp, relu)
    return step


class _Program:
    """A graph's order, inputs by node id and shapes at batch 1, plans by
    given-id set, steps (node id -> (node, step), bound on first use),
    `peaks` (node id -> its step's peak bytes per image, on first use),
    `codes` (node id -> whether its value holds int8 codes) and the graph
    checks a pass makes: `not_fp32`, `unquantized` (a code writer without
    `out_qparams`) and `miswired` (the first (value, reader) edge that
    disagrees). It holds the graph's nodes but not the graph, whose memo
    holds it."""

    def __init__(self, graph: Graph):
        self.order, self.shapes = topo_sort(graph), infer_shapes(graph)
        self.inputs = {n.id: n.inputs for n in graph.nodes}
        self.input, self.output = graph.input_node.id, graph.output_node.id
        self.plans, self.steps, self.peaks = {}, {}, {}
        self.not_fp32 = next((n.id for n in graph.nodes if n.precision != 32), None)
        self.unquantized = next((n.id for n in graph.nodes
                                 if _writes_codes(n) and "out_qparams" not in n.attrs), None)
        readers = [n for n in graph.nodes if n.kind != "Output"]
        codes = self.codes = {n.id: _writes_codes(n) for n in readers}
        codes[self.input] = any(_reads_codes(n) for n in readers if self.input in n.inputs)
        codes[self.output] = codes[graph.output_node.inputs[0]]
        self.miswired = next(((src, n.id) for n in readers for src in n.inputs
                              if codes[src] != _reads_codes(n)), None)

    def plan(self, given: Iterable[str]) -> tuple[tuple[str, tuple[str, ...]], ...]:
        key = frozenset(given)
        return self.plans.get(key) or self.plans.setdefault(key, _plan_of(self.order, self.inputs, key))


_HOLDS = {True: "int8 codes", False: "float"}


def _program(graph: Graph) -> _Program:
    """The graph's program, made on first use and kept in its memo."""
    return graph.derived("program", _Program)


class Executor:
    """Graph interpreter with an image-pass counter.

    One instance per thread; each completed run_fp32/run_quantized call adds
    its batch size to the counter.
    """

    def __init__(self):
        self.passes = 0

    def run_fp32(self, graph: Graph, inp: Tensor,
                 pause: dict[str, Callable[[dict[str, Tensor]], object]] | None = None,
                 observe: dict[str, Callable[[Tensor], object]] | None = None) -> Tensor:
        """One FP32 pass; the Output's value. `pause` and `observe` map node
        ids to callables: the pass calls a pause just before its step, with the
        values live there, and an observer with the output its step makes."""
        program = _program(graph)
        if program.not_fp32 is not None:
            raise InvariantViolation(f"run_fp32 on graph with int8 node {program.not_fp32!r}")
        return self._run(graph, inp, {}, pause or {}, observe or {}, program)

    def run_quantized(self, graph: Graph, inp: Tensor, given: dict[str, Tensor] | None = None,
                      observe: dict[str, Callable[[Tensor], object]] | None = None) -> Tensor:
        """One pass over a mixed-precision graph. `given` supplies node
        outputs, which the pass then neither computes nor observes; it runs
        only the nodes the Output still needs. `inp` stays the whole batch.
        `observe` is run_fp32's."""
        return self._run(graph, inp, given or {}, {}, observe or {}, _program(graph))

    def _run(self, graph: Graph, inp: Tensor, given: dict, pause: dict, observe: dict, program: _Program):
        steps, shapes, codes = program.steps, program.shapes, program.codes
        if program.unquantized is not None:
            raise MissingQuantParams(f"node {program.unquantized!r} writes int8 codes but lacks out_qparams")
        if program.miswired is not None:
            src, nid = program.miswired
            raise MissingQuantParams(f"node {nid!r} reads {src!r} as {_HOLDS[not codes[src]]}, "
                                     f"but {src!r} holds {_HOLDS[codes[src]]}")
        for nid, t in ((program.input, inp), *given.items()):
            if t.shape != (want := (inp.shape[0], *shapes[nid][1:])):
                raise ShapeMismatch(f"the pass hands {nid!r} shape {t.shape}, where the graph holds {want}")
            if (t.qparams is not None) != codes[nid]:
                raise MissingQuantParams(f"the pass hands {nid!r} {_HOLDS[not codes[nid]]}, "
                                         f"where the graph holds {_HOLDS[codes[nid]]}")
        values = dict(given)
        for nid, freed in program.plan(given):
            if nid in pause:
                pause[nid](values)
            if nid not in steps:
                node = graph.node(nid)
                steps[nid] = node, _bind(node)
            node, step = steps[nid]
            t = values[nid] = step(inp, [values[s] for s in node.inputs])
            if nid in observe:
                observe[nid](t)
            for s in freed:
                del values[s]
        self.passes += inp.shape[0]
        return values[program.output]
