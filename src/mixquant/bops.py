"""Bit-operations accounting: BOPs(config) = sum(bits(node) * MACs(node)).

Two reduction rates are reported. The literal rate, 1 - BOPs/BOPs_fp32,
tops out at 75% for an 8-bit/32-bit mix. The normalized rate is the affine
rescaling that sends the FP32 model to 0 and the fully-int8 model to 100,
which is the axis every accuracy-vs-compression sweep is parameterized by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IncompleteConfig, UnresolvedShape
from .executor import _program
from .ir import Graph, Node, QUANTIZABLE_KINDS

_ZERO_MAC_KINDS = frozenset({"Quantize", "Dequantize", "Flatten", "Input", "Output"})


def count_macs(node: Node, shapes: dict[str, tuple[int, ...]]) -> int:
    """Multiply-accumulate count for one node given resolved shapes (batch 1).

    conv: output elements x (kh * kw * c_in / groups); gemm: M * N * K;
    elementwise/pool/normalization: output element count; data-movement and
    conversion ops: 0.
    """
    if node.kind in _ZERO_MAC_KINDS:
        return 0
    if node.id not in shapes:
        raise UnresolvedShape(f"no resolved shape for node {node.id!r}")
    out_elems = math.prod(shapes[node.id])
    if node.kind == "Conv2d":
        _, ci, kh, kw = node.weights["weight"].shape
        return out_elems * ci * kh * kw
    if node.kind == "DepthwiseConv2d":
        _, _, kh, kw = node.weights["weight"].shape
        return out_elems * kh * kw
    if node.kind == "Gemm":
        return out_elems * node.weights["weight"].shape[1]
    return out_elems


def macs_by_node(graph: Graph) -> dict[str, int]:
    """Each node's MACs, from the shapes that the graph's program holds."""
    shapes = _program(graph).shapes
    return {n.id: count_macs(n, shapes) for n in graph.nodes}


@dataclass
class BopsReport:
    bops_fp32: int = 0
    bops_int8: int = 0
    bops_config: int = 0
    literal_reduction_pct: float = 0.0
    normalized_reduction_pct: float = 0.0


def _normalized(fp32: int, int8: int, config: int) -> float:
    """The normalized reduction of `config` BOPs: 0 at FP32, 100 at all-int8 or when they coincide."""
    return 100.0 * (fp32 - config) / (fp32 - int8) if fp32 != int8 else 100.0


def bops(graph: Graph, config: dict[str, int], macs: dict[str, int] | None = None) -> BopsReport:
    """Account BOPs for a precision config (node id -> 8 or 32 over the
    quantizable nodes; everything else is fixed at 32 bits)."""
    macs = macs if macs is not None else macs_by_node(graph)
    total = 0
    total_int8 = 0
    total_config = 0
    for n in graph.nodes:
        m = macs.get(n.id, 0)
        if m == 0:
            continue
        quantizable = n.kind in QUANTIZABLE_KINDS
        if quantizable and n.id not in config:
            raise IncompleteConfig(f"precision config misses quantizable node {n.id!r}")
        bits = config[n.id] if quantizable else 32
        if bits not in (8, 32):
            raise IncompleteConfig(f"node {n.id!r} has unsupported bit width {bits}")
        total += 32 * m
        total_int8 += (8 if quantizable else 32) * m
        total_config += bits * m
    literal = 100.0 * (1.0 - total_config / total) if total else 0.0
    return BopsReport(bops_fp32=total, bops_int8=total_int8, bops_config=total_config,
                      literal_reduction_pct=literal,
                      normalized_reduction_pct=_normalized(total, total_int8, total_config))
