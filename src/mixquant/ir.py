"""Core graph IR: tensors, quantization parameters, nodes, and graph passes.

The IR is a flat DAG of typed operator nodes. Graphs are treated as immutable
once built: every transform copies, rewires, and returns a new Graph. Node
insertion order is significant: it is the tie-break for topological sorting,
which keeps every downstream artifact (sensitivity lists, Q-DQ placement)
reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CycleDetected,
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
        if not self.step > 0:
            raise InvariantViolation(f"quantization step must be positive, got {self.step}")
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

    @classmethod
    def i8(cls, values, qparams: QuantParams) -> "Tensor":
        return cls(np.ascontiguousarray(values, dtype=np.int8), qparams)


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

    def consumers(self, node_id: str) -> list[Node]:
        return [n for n in self.nodes if node_id in n.inputs]

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
        """Check structural invariants: ids resolve, single Input/Output, acyclic."""
        self._single_kind("Input")
        self._single_kind("Output")
        for n in self.nodes:
            for src in n.inputs:
                if src not in self._by_id:
                    raise UnknownNode(f"node {n.id!r} reads undefined input {src!r}")
        topo_sort(self)  # raises CycleDetected


def _wiring(graph: Graph) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The graph's edges as ((node id, input ids), ...) in insertion order."""
    return tuple((n.id, tuple(n.inputs)) for n in graph.nodes)


def topo_sort(graph: Graph) -> list[str]:
    """Topological order of node ids, deterministic.

    Kahn's algorithm; among simultaneously-ready nodes the one inserted first
    wins, so repeated runs (and reruns of the whole pipeline) agree exactly.
    """
    return _topo_order(_wiring(graph), graph.name)


def _topo_order(edges: tuple[tuple[str, tuple[str, ...]], ...], name: str = "graph") -> list[str]:
    order_idx = {nid: i for i, (nid, _) in enumerate(edges)}
    indeg = dict.fromkeys(order_idx, 0)
    out_edges: dict[str, list[str]] = {nid: [] for nid in order_idx}
    for nid, inputs in edges:
        for src in inputs:
            if src not in indeg:
                raise UnknownNode(f"node {nid!r} reads undefined input {src!r}")
            out_edges[src].append(nid)
            indeg[nid] += 1

    ready = sorted((nid for nid, d in indeg.items() if d == 0), key=order_idx.__getitem__)
    result: list[str] = []
    while ready:
        nid = ready.pop(0)
        result.append(nid)
        changed = False
        for dst in out_edges[nid]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
                changed = True
        if changed:
            ready.sort(key=order_idx.__getitem__)
    if len(result) != len(edges):
        raise CycleDetected(f"graph {name!r} contains a cycle")
    return result


# ---------------------------------------------------------------------------
# shape inference

def _conv_out_hw(h: int, w: int, kernel: tuple[int, int], stride: tuple[int, int],
                 padding: tuple[int, int]) -> tuple[int, int]:
    oh = (h + 2 * padding[0] - kernel[0]) // stride[0] + 1
    ow = (w + 2 * padding[1] - kernel[1]) // stride[1] + 1
    if oh <= 0 or ow <= 0:
        raise ShapeMismatch(f"kernel {kernel} does not fit input {h}x{w} with stride {stride}, pad {padding}")
    return oh, ow


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (list, tuple)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def infer_shapes(graph: Graph, batch: int = 1) -> dict[str, tuple[int, ...]]:
    """Propagate tensor shapes from the Input node through the whole graph."""
    shapes: dict[str, tuple[int, ...]] = {}
    for nid in topo_sort(graph):
        n = graph.node(nid)
        ins = [shapes[s] for s in n.inputs]
        if n.kind == "Input":
            if "shape" not in n.attrs:
                raise UnresolvedShape(f"Input node {n.id!r} lacks a shape attribute")
            shapes[nid] = (batch, *[int(d) for d in n.attrs["shape"]])
        elif n.kind in ("Conv2d", "DepthwiseConv2d"):
            nb, c, h, w = ins[0]
            wt = n.weights["weight"]
            kh, kw = wt.shape[2], wt.shape[3]
            oh, ow = _conv_out_hw(h, w, (kh, kw), _pair(n.attrs.get("stride", 1)),
                                  _pair(n.attrs.get("padding", 0)))
            if n.kind == "Conv2d":
                if wt.shape[1] != c:
                    raise ShapeMismatch(f"{n.id}: weight expects {wt.shape[1]} channels, input has {c}")
                shapes[nid] = (nb, wt.shape[0], oh, ow)
            else:
                if wt.shape[0] != c:
                    raise ShapeMismatch(f"{n.id}: depthwise weight has {wt.shape[0]} filters, input has {c}")
                shapes[nid] = (nb, c, oh, ow)
        elif n.kind in ("BatchNorm", "ReLU", "Softmax", "Quantize", "Dequantize", "Output"):
            shapes[nid] = ins[0]
        elif n.kind == "Add":
            if ins[0] != ins[1]:
                raise ShapeMismatch(f"{n.id}: Add operands {ins[0]} vs {ins[1]}")
            shapes[nid] = ins[0]
        elif n.kind in ("MaxPool", "AvgPool"):
            nb, c, h, w = ins[0]
            k = _pair(n.attrs["kernel"])
            stride = n.attrs.get("stride")  # None strides by the kernel, as in the executor
            s = k if stride is None else _pair(stride)
            p = _pair(n.attrs.get("padding", 0))
            oh, ow = _conv_out_hw(h, w, k, s, p)
            shapes[nid] = (nb, c, oh, ow)
        elif n.kind == "GlobalAvgPool":
            nb, c = ins[0][0], ins[0][1]
            shapes[nid] = (nb, c)
        elif n.kind == "Flatten":
            nb = ins[0][0]
            flat = 1
            for d in ins[0][1:]:
                flat *= d
            shapes[nid] = (nb, flat)
        elif n.kind == "Gemm":
            nb, k = ins[0]
            wt = n.weights["weight"]
            if wt.shape[1] != k:
                raise ShapeMismatch(f"{n.id}: Gemm weight expects K={wt.shape[1]}, input has {k}")
            shapes[nid] = (nb, wt.shape[0])
        else:
            raise UnresolvedShape(f"no shape rule for kind {n.kind!r}")
    return shapes
