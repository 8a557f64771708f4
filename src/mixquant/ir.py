"""Core graph IR: tensors, quantization parameters, nodes, and graph passes.

The IR is a flat DAG of typed operator nodes. Graphs are treated as immutable
once built: every transform copies, rewires, and returns a new Graph. Node
insertion order is significant: it is the tie-break for topological sorting,
which keeps every downstream artifact (sensitivity lists, Q-DQ placement)
reproducible across runs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    CycleDetected,
    InvalidAttribute,
    InvariantViolation,
    ShapeMismatch,
    UnknownNode,
    UnresolvedShape,
)

KINDS = frozenset({
    "Conv2d", "DepthwiseConv2d", "BatchNorm", "ReLU", "Add",
    "MaxPool", "AvgPool", "GlobalAvgPool", "Gemm", "Flatten", "Softmax",
    "Quantize", "Dequantize", "Input", "Output",
})

# Kinds eligible for int8 precision. Softmax, Flatten, Input and Output stay
# float: they are shape/score ops, never compute-bound.
QUANTIZABLE_KINDS = frozenset({
    "Conv2d", "DepthwiseConv2d", "BatchNorm", "ReLU", "Add",
    "MaxPool", "AvgPool", "GlobalAvgPool", "Gemm",
})

# Kinds whose weight tensors are quantized when the node goes int8.
WEIGHTED_KINDS = frozenset({"Conv2d", "DepthwiseConv2d", "Gemm"})


def round_half_away(x):
    """Round half away from zero (ties: 0.5 -> 1, -0.5 -> -1).

    The single rounding mode used everywhere in the toolkit, chosen for
    cross-platform bit-reproducibility (numpy's round() ties to even).
    """
    x = np.asarray(x)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class QuantParams:
    """Per-tensor affine parameters of int8 codes.

    real value = (q - zero_point) * step. Symmetric params pin zero_point
    to 0 and use the narrowed range [-127, 127] so negation stays exact.
    """

    step: float
    zero_point: int
    symmetric: bool = False

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise InvariantViolation(f"quantization step must be positive and finite, got {self.step}")
        if self.symmetric and self.zero_point != 0:
            raise InvariantViolation("symmetric params require zero_point == 0")

    @property
    def qmin(self) -> int:
        return -127 if self.symmetric else -128

    @property
    def qmax(self) -> int:
        return 127

    def to_json(self) -> dict:
        return {"step": float(self.step), "zero_point": int(self.zero_point),
                "symmetric": bool(self.symmetric)}

    @classmethod
    def from_json(cls, d: dict) -> "QuantParams":
        if sorted(d) != ["step", "symmetric", "zero_point"]:
            raise ValueError(f"expected the keys step, zero_point and symmetric, got {sorted(d)}")
        return cls(float(d["step"]), int(d["zero_point"]), bool(d["symmetric"]))


@dataclass
class Tensor:
    """An n-d numeric array (f32 | i8), row-major, plus optional qparams.

    int8 tensors always carry the QuantParams they were produced with; float
    tensors never do.
    """

    data: np.ndarray
    qparams: QuantParams | None = None

    def __post_init__(self):
        if self.data.dtype == np.float32:
            if self.qparams is not None:
                raise InvariantViolation("f32 tensor must not carry qparams")
        elif self.data.dtype == np.int8:
            if self.qparams is None:
                raise InvariantViolation("i8 tensor requires qparams")
        else:
            raise InvariantViolation(f"unsupported tensor dtype {self.data.dtype}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def dtype(self) -> str:
        return "i8" if self.data.dtype == np.int8 else "f32"

    @classmethod
    def f32(cls, values) -> "Tensor":
        return cls(np.ascontiguousarray(values, dtype=np.float32))


@dataclass
class Node:
    """One operator in the graph.

    attrs holds kind-specific scalars (stride, padding, epsilon, qparams once
    quantized); weights holds named parameter tensors (conv/gemm weight+bias,
    batchnorm gamma/beta/mean/var). precision is 32 on construction; only the
    mixed-precision transform flips it to 8.
    """

    id: str
    kind: str
    inputs: list[str] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)
    weights: dict[str, Tensor] = field(default_factory=dict)
    precision: int = 32

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvariantViolation(f"unknown node kind {self.kind!r}")

    def copy(self) -> "Node":
        # weights/attr tensors are shared (treated read-only); containers are fresh
        return Node(self.id, self.kind, list(self.inputs), dict(self.attrs),
                    dict(self.weights), self.precision)


class Graph:
    """An ordered DAG of nodes; edges are implied by Node.inputs."""

    def __init__(self, name: str = "graph", nodes: list[Node] | None = None):
        self.name = name
        self.nodes: list[Node] = []
        self._by_id: dict[str, Node] = {}
        for n in nodes or []:
            self.add(n)

    def add(self, node: Node) -> Node:
        if node.id in self._by_id:
            raise InvariantViolation(f"duplicate node id {node.id!r}")
        self.nodes.append(node)
        self._by_id[node.id] = node
        return node

    def node(self, node_id: str) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise UnknownNode(f"no node named {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._by_id

    def copy(self) -> "Graph":
        return Graph(self.name, [n.copy() for n in self.nodes])

    @property
    def input_node(self) -> Node:
        return self._single_kind("Input")

    @property
    def output_node(self) -> Node:
        return self._single_kind("Output")

    def _single_kind(self, kind: str) -> Node:
        found = [n for n in self.nodes if n.kind == kind]
        if len(found) != 1:
            raise InvariantViolation(f"graph must contain exactly one {kind} node, found {len(found)}")
        return found[0]

    def validate(self) -> None:
        """Check structural invariants: single Input/Output, ids resolve, acyclic."""
        self._single_kind("Input")
        self._single_kind("Output")
        topo_sort(self)  # raises UnknownNode and CycleDetected


def _wiring(graph: Graph) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The graph's edges as ((node id, input ids), ...) in insertion order."""
    return tuple((n.id, tuple(n.inputs)) for n in graph.nodes)


def topo_sort(graph: Graph) -> list[str]:
    """Topological order of node ids, deterministic.

    Kahn's algorithm; among simultaneously-ready nodes the one inserted first
    wins, so repeated runs (and reruns of the whole pipeline) agree exactly.
    The order is cached by the wiring, as the executor's plan is.
    """
    return list(_topo_order(_wiring(graph)))


@lru_cache(maxsize=256)
def _topo_order(edges: tuple[tuple[str, tuple[str, ...]], ...]) -> tuple[str, ...]:
    order_idx = {nid: i for i, (nid, _) in enumerate(edges)}
    indeg = dict.fromkeys(order_idx, 0)
    out_edges: dict[str, list[str]] = {nid: [] for nid in order_idx}
    for nid, inputs in edges:
        for src in inputs:
            if src not in indeg:
                raise UnknownNode(f"node {nid!r} reads undefined input {src!r}")
            out_edges[src].append(nid)
            indeg[nid] += 1

    ready = [order_idx[nid] for nid, d in indeg.items() if d == 0]  # a heap of insertion indices
    result: list[str] = []
    while ready:
        nid = edges[heapq.heappop(ready)][0]
        result.append(nid)
        for dst in out_edges[nid]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                heapq.heappush(ready, order_idx[dst])
    if len(result) != len(edges):
        # a node left unordered reads one that is too: walking back repeats one on a cycle
        inputs, nid, seen = dict(edges), next(n for n in indeg if indeg[n]), set()
        while nid not in seen:
            seen.add(nid)
            nid = next(src for src in inputs[nid] if indeg[src])
        raise CycleDetected(f"node {nid!r} lies on a cycle")
    return tuple(result)


# ---------------------------------------------------------------------------
# shape inference

def _conv_out_hw(h: int, w: int, kernel: tuple[int, int], stride: tuple[int, int],
                 padding: tuple[int, int]) -> tuple[int, int]:
    oh = (h + 2 * padding[0] - kernel[0]) // stride[0] + 1
    ow = (w + 2 * padding[1] - kernel[1]) // stride[1] + 1
    if oh <= 0 or ow <= 0:
        raise ShapeMismatch(f"kernel {kernel} does not fit input {h}x{w} with stride {stride}, pad {padding}")
    return oh, ow


def _int_pair(node: Node, key: str, v, least: int) -> tuple[int, int]:
    """An int >= least, or a pair of them, as a pair."""
    if type(v) is int and v >= least:
        return v, v
    items = v if isinstance(v, (list, tuple)) and len(v) == 2 else [v]
    if not all(type(x) is int and x >= least for x in items):
        raise InvalidAttribute(f"node {node.id!r} ({node.kind}): {key} must be an int >= {least} "
                               f"or a pair of them, got {v!r}")
    return items[0], items[-1]


def _window(node: Node) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """The (kernel, stride, padding) pairs of a Conv2d, DepthwiseConv2d,
    MaxPool or AvgPool node, else InvalidAttribute. A conv's kernel is its
    weight's; a pool without a stride strides by its kernel, and its padding
    must stay below its kernel, or a window could hold padding alone."""
    pool = node.kind not in WEIGHTED_KINDS
    kernel = (_int_pair(node, "kernel", node.attrs.get("kernel"), 1) if pool
              else node.weights["weight"].data.shape[2:])
    stride = node.attrs.get("stride", None if pool else 1)
    stride = kernel if pool and stride is None else _int_pair(node, "stride", stride, 1)
    padding = _int_pair(node, "padding", node.attrs.get("padding", 0), 0)
    if pool and (padding[0] >= kernel[0] or padding[1] >= kernel[1]):
        raise InvalidAttribute(f"node {node.id!r} ({node.kind}): padding {padding} "
                               f"must stay below the kernel {kernel}")
    return kernel, stride, padding


# The int8-codes rule, which load_model and the executor's program check on
# every edge: int8 nodes and Quantize write codes, int8 nodes and Dequantize
# read them, and every other value and read is float.

def _writes_codes(node: Node) -> bool:
    return node.precision == 8 or node.kind == "Quantize"


def _reads_codes(node: Node) -> bool:
    return node.precision == 8 or node.kind == "Dequantize"


def infer_shapes(graph: Graph) -> dict[str, tuple[int, ...]]:
    """Propagate tensor shapes, at batch 1, from the Input node through the
    whole graph."""
    shapes: dict[str, tuple[int, ...]] = {}
    for nid in topo_sort(graph):
        n = graph.node(nid)
        ins = [shapes[s] for s in n.inputs]
        if n.kind == "Input":
            if "shape" not in n.attrs:
                raise UnresolvedShape(f"Input node {n.id!r} lacks a shape attribute")
            shapes[nid] = (1, *[int(d) for d in n.attrs["shape"]])
        elif n.kind in ("Conv2d", "DepthwiseConv2d", "MaxPool", "AvgPool"):
            nb, c, h, w = ins[0]
            oh, ow = _conv_out_hw(h, w, *_window(n))
            if n.kind == "Conv2d":
                co, ci = n.weights["weight"].shape[:2]
                if ci != c:
                    raise ShapeMismatch(f"{n.id}: weight expects {ci} channels, input has {c}")
                c = co
            elif n.kind == "DepthwiseConv2d" and n.weights["weight"].shape[:2] != (c, 1):
                raise ShapeMismatch(f"{n.id}: depthwise weight {n.weights['weight'].shape} "
                                    f"does not match {c} input channels")
            shapes[nid] = (nb, c, oh, ow)
        elif n.kind in ("BatchNorm", "ReLU", "Softmax", "Quantize", "Dequantize", "Output"):
            if n.kind == "BatchNorm" and {t.data.shape for t in n.weights.values()} != {ins[0][1:2]}:
                raise ShapeMismatch(f"{n.id}: batchnorm parameters must each have shape {ins[0][1:2]}")
            shapes[nid] = ins[0]
        elif n.kind == "Add":
            if ins[0] != ins[1]:
                raise ShapeMismatch(f"{n.id}: Add operands {ins[0]} vs {ins[1]}")
            shapes[nid] = ins[0]
        elif n.kind == "GlobalAvgPool":
            shapes[nid] = ins[0][:2]
        elif n.kind == "Flatten":
            shapes[nid] = (ins[0][0], math.prod(ins[0][1:]))
        elif n.kind == "Gemm":
            nb, k = ins[0]
            wt = n.weights["weight"]
            if wt.shape[1] != k:
                raise ShapeMismatch(f"{n.id}: Gemm weight expects K={wt.shape[1]}, input has {k}")
            shapes[nid] = (nb, wt.shape[0])
        else:
            raise UnresolvedShape(f"no shape rule for kind {n.kind!r}")
    return shapes
