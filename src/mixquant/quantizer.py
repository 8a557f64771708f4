"""Tensor quantize/dequantize primitives and the mixed-precision graph transform.

The transform makes one forward pass over an FP32 graph. It converts every
quantizable node that is not on the keep-at-32-bit list into its int8
counterpart, with weights quantized symmetrically. On every edge between an
FP32 and an int8 node it inserts one Quantize or Dequantize adapter, shared
by all readers of that value, so the graph it writes holds no dead node and
no redundant adapter pair by construction. The qparams of a value's codes
come from its calibrated activation range and are recorded once, as
`out_qparams` on the node that writes the codes (an int8 node or a
Quantize); readers take them from the codes, so Dequantize has no attrs.

Entries on the keep list name fusion-group anchors; membership expands here
so a whole conv[+bn][+add][+relu] group always shares one precision.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .calibration import CalibrationProfile, activation_qparams, weight_qparams
from .errors import AlreadyQuantized, UnknownNodeInList
from .fusion import discover_fusion_groups
from .ir import (
    Graph,
    Node,
    QUANTIZABLE_KINDS,
    QuantParams,
    Tensor,
    WEIGHTED_KINDS,
)


def quantize_affine(x, qp: QuantParams) -> Tensor:
    """q = clamp(round(x / step) + zero_point) into the 8-bit range.

    Rounding is half-away-from-zero; symmetric params saturate to
    [-127, 127], asymmetric to [-128, 127].
    """
    return _requantize(x.data if isinstance(x, Tensor) else np.asarray(x), qp)


def _requantize(real: np.ndarray, qp: QuantParams, clamp_at_zero: bool = False) -> Tensor:
    """clamp(round_half_away(real / step) + zero_point), clamped below at the
    zero point under a fused ReLU. The rounding runs in place on the one fresh
    float64 quotient as trunc(q + copysign(0.5, q)), which equals
    sign(q) * floor(|q| + 0.5) exactly, so the operand is left alone."""
    q = np.divide(real, qp.step, dtype=np.float64)
    q += np.copysign(0.5, q)
    np.trunc(q, out=q)
    q += qp.zero_point
    np.maximum(q, max(qp.qmin, qp.zero_point) if clamp_at_zero else qp.qmin, out=q)
    np.minimum(q, qp.qmax, out=q)
    return Tensor(q.astype(np.int8), qp)


def dequantize(q: Tensor) -> Tensor:
    """x_hat = (q - zero_point) * step with the codes' own qparams; the
    zero_point itself maps to exactly 0."""
    qp = q.qparams
    real = q.data.astype(np.float64)
    real -= qp.zero_point
    real *= qp.step
    return Tensor(real.astype(np.float32))


def _profile_id(node: Node) -> str:
    return node.attrs.get("profile_id", node.id)


def expand_to_groups(graph: Graph, node_ids) -> list[str]:
    """Expand listed ids to full fusion-group membership, preserving order.

    Ids absent from the graph are dropped silently: a list generated at one IR
    stage may name members (e.g. a folded BatchNorm) that no longer exist at
    the application stage.
    """
    member_of = {m: g for g in discover_fusion_groups(graph) for m in g.members}
    out: list[str] = []
    seen: set[str] = set()
    for nid in node_ids:
        if nid not in member_of:
            continue
        for m in member_of[nid].members:
            if m not in seen:
                seen.add(m)
                out.append(m)
    return out


def apply_mixed_precision(graph: Graph, dequant_list, calib: CalibrationProfile) -> Graph:
    """Quantize an FP32 graph to int8 except for the fusion groups named in
    `dequant_list`. One forward pass copies each node, converting those that
    go int8, and puts one Quantize or Dequantize adapter on every input edge
    that crosses a precision boundary. Returns a new executable graph."""
    ids = list(dequant_list)
    if len(set(ids)) != len(ids):
        raise ValueError("dequantized node list contains duplicates")
    for nid in ids:
        if nid not in graph:
            raise UnknownNodeInList(f"dequantized node list names unknown node {nid!r}")
        if graph.node(nid).kind not in QUANTIZABLE_KINDS:
            raise UnknownNodeInList(f"node {nid!r} ({graph.node(nid).kind}) is not quantizable")
    for n in graph.nodes:
        if n.kind in ("Quantize", "Dequantize") or n.precision == 8:
            raise AlreadyQuantized(f"model {graph.name!r} is already quantized ({n.kind} node "
                                   f"{n.id!r}{' at 8 bits' if n.precision == 8 else ''}); "
                                   f"quantize its FP32 model")
    keep32 = set(expand_to_groups(graph, ids))
    int8 = {n.id for n in graph.nodes if n.kind in QUANTIZABLE_KINDS and n.id not in keep32}

    def codes_of(nid: str) -> QuantParams:
        return activation_qparams(calib.for_node(_profile_id(graph.node(nid))))

    out = Graph(graph.name)
    adapters: dict[tuple[str, str], str] = {}
    for node in graph.nodes:
        node, i8 = node.copy(), node.id in int8
        if i8:
            node.attrs["out_qparams"] = codes_of(node.id)
            if node.kind in WEIGHTED_KINDS:
                node.weights["weight"] = quantize_affine(
                    node.weights["weight"], weight_qparams(node.weights["weight"]))
            node.precision = 8
        for slot, src in enumerate(node.inputs):
            if i8 == (src in int8):
                continue
            key = ("Quantize" if i8 else "Dequantize", src)
            if key not in adapters:
                adapters[key] = f"{src}__{'q' if i8 else 'dq'}{len(adapters)}"
                attrs = {"out_qparams": codes_of(src)} if i8 else {}
                out.add(Node(adapters[key], key[0], [src], attrs=attrs))
            node.inputs[slot] = adapters[key]
        out.add(node)
    out.validate()
    return out


def count_qdq(graph: Graph) -> int:
    """Number of Quantize plus Dequantize nodes (runtime conversion overhead)."""
    return sum(1 for n in graph.nodes if n.kind in ("Quantize", "Dequantize"))


def precision_config(graph: Graph) -> dict[str, int]:
    """node id -> bit width for every quantizable node in the graph."""
    return {n.id: n.precision for n in graph.nodes if n.kind in QUANTIZABLE_KINDS}


def select_dequant_set(sens_list, graph: Graph, target_reduction_pct: float) -> list[str]:
    """Walk a sensitivity list head-first, moving whole fusion groups to 32
    bits until the normalized BOPs reduction first drops to the target.

    100 keeps everything int8 (empty list); 0 dequantizes every group.
    """
    from .bops import _normalized, bops, macs_by_node  # deferred: bops reads shapes from the executor, which imports this module

    macs = macs_by_node(graph)
    report = bops(graph, {n.id: 8 for n in graph.nodes if n.kind in QUANTIZABLE_KINDS}, macs=macs)
    config = report.bops_int8
    member_of = {m: g for g in discover_fusion_groups(graph) for m in g.members}
    chosen: dict[str, None] = {}  # kept in order, looked up in O(1)
    for nid in getattr(sens_list, "ids", sens_list):
        if _normalized(report.bops_fp32, report.bops_int8, config) <= target_reduction_pct:
            break
        if nid in chosen or nid not in member_of:
            continue
        members = member_of[nid].members
        chosen.update(dict.fromkeys(members))
        config += 24 * sum(macs[m] for m in members)  # 32 bits in place of 8
    return list(chosen)


def save_node_list(ids, path) -> None:
    """One node id per line, UTF-8; order is significant."""
    Path(path).write_text("".join(f"{nid}\n" for nid in ids), encoding="utf-8")


def load_node_list(path) -> list[str]:
    return [line for line in Path(path).read_text(encoding="utf-8").splitlines() if line]


def save_precision_config(config: dict[str, int], path) -> None:
    Path(path).write_text(json.dumps({"layers": config}, indent=1, sort_keys=True))

