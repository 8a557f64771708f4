"""Tensor quantize/dequantize primitives and the mixed-precision graph transform.

The transform walks the node list from last to first, converting every
quantizable node that is not on the keep-at-32-bit list into its int8
counterpart: output scale from the node's calibrated activation range, input
scales from each producer's range, weights quantized symmetrically. A second
pass inserts Quantize/Dequantize adapter nodes at every F32<->I8 boundary,
and a final cleanup removes dead nodes and cancels redundant adapter pairs.

Entries on the keep list name fusion-group anchors; membership expands here
so a whole conv[+bn][+add][+relu] group always shares one precision.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .calibration import CalibrationProfile, activation_qparams, weight_qparams
from .errors import UnknownNodeInList
from .fusion import discover_fusion_groups
from .ir import (
    Graph,
    Node,
    QUANTIZABLE_KINDS,
    QuantParams,
    Tensor,
    WEIGHTED_KINDS,
    dce_cse,
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
    float64 quotient, so the operand is left alone and no other temporary
    than the sign is made."""
    q = np.divide(real, qp.step, dtype=np.float64)
    sign = np.sign(q)
    np.abs(q, out=q)
    q += 0.5
    np.floor(q, out=q)
    q *= sign
    q += qp.zero_point
    if clamp_at_zero:
        np.maximum(q, qp.zero_point, out=q)
    return Tensor(np.clip(q, qp.qmin, qp.qmax, out=q).astype(np.int8), qp)


def dequantize(q: Tensor, qp: QuantParams | None = None) -> Tensor:
    """x_hat = (q - zero_point) * step; the zero_point itself maps to exactly 0."""
    qp = qp or q.qparams
    data = q.data if isinstance(q, Tensor) else np.asarray(q)
    return Tensor(((data.astype(np.float64) - qp.zero_point) * qp.step).astype(np.float32))


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
    """Quantize the graph to int8 except for the fusion groups named in
    `dequant_list`, inserting Quantize/Dequantize adapters at every precision
    boundary. Returns a new executable graph."""
    ids = list(dequant_list)
    if len(set(ids)) != len(ids):
        raise ValueError("dequantized node list contains duplicates")
    for nid in ids:
        if nid not in graph:
            raise UnknownNodeInList(f"dequantized node list names unknown node {nid!r}")
        if graph.node(nid).kind not in QUANTIZABLE_KINDS:
            raise UnknownNodeInList(f"node {nid!r} ({graph.node(nid).kind}) is not quantizable")
    keep32 = set(expand_to_groups(graph, ids))

    g = graph.copy()
    # last-to-first sweep: convert each quantizable node not kept at 32 bits
    for node in reversed(g.nodes):
        if node.kind not in QUANTIZABLE_KINDS or node.id in keep32:
            continue
        out_qp = activation_qparams(calib.for_node(_profile_id(node)))
        in_qps = [activation_qparams(calib.for_node(_profile_id(g.node(src))))
                  for src in node.inputs]
        node.attrs = dict(node.attrs)
        node.attrs["out_qparams"] = out_qp
        node.attrs["in_qparams"] = in_qps
        if node.kind in WEIGHTED_KINDS:
            node.weights = dict(node.weights)
            node.weights["weight"] = quantize_affine(
                node.weights["weight"], weight_qparams(node.weights["weight"]))
        node.precision = 8
    g = _insert_adapters(g, calib)
    g = dce_cse(g)
    g.validate()
    return g


def _yields_i8(node: Node) -> bool:
    if node.kind == "Quantize":
        return True
    return node.precision == 8 and node.kind in QUANTIZABLE_KINDS


def _expects_i8(node: Node) -> bool:
    if node.kind == "Dequantize":
        return True
    return node.precision == 8 and node.kind in QUANTIZABLE_KINDS


def _out_qparams(node: Node) -> QuantParams:
    return node.attrs["qparams"] if node.kind == "Quantize" else node.attrs["out_qparams"]


def _insert_adapters(g: Graph, calib: CalibrationProfile) -> Graph:
    out = Graph(g.name)
    cache: dict[tuple, str] = {}

    def adapter(kind: str, src: str, qp: QuantParams) -> str:
        key = (kind, src, qp)
        if key not in cache:
            aid = f"{src}__{'q' if kind == 'Quantize' else 'dq'}{len(cache)}"
            out.add(Node(aid, kind, [src], attrs={"qparams": qp}))
            cache[key] = aid
        return cache[key]

    for node in g.nodes:
        node = node.copy()
        new_inputs = []
        for slot, src in enumerate(node.inputs):
            producer = g.node(src)
            if _expects_i8(node) and not _yields_i8(producer):
                want = node.attrs["in_qparams"][slot] if node.kind != "Dequantize" \
                    else node.attrs["qparams"]
                new_inputs.append(adapter("Quantize", src, want))
            elif not _expects_i8(node) and _yields_i8(producer):
                new_inputs.append(adapter("Dequantize", src, _out_qparams(producer)))
            elif _expects_i8(node) and _yields_i8(producer):
                have = _out_qparams(producer)
                want = node.attrs["in_qparams"][slot]
                if have != want:
                    # requantize expressed as an explicit DQ -> Q pair
                    mid = adapter("Dequantize", src, have)
                    new_inputs.append(adapter("Quantize", mid, want))
                else:
                    new_inputs.append(src)
            else:
                new_inputs.append(src)
        node.inputs = new_inputs
        out.add(node)
    return out


def count_qdq(graph: Graph) -> int:
    """Number of Quantize plus Dequantize nodes (runtime conversion overhead)."""
    return sum(1 for n in graph.nodes if n.kind in ("Quantize", "Dequantize"))


def precision_config(graph: Graph) -> dict[str, int]:
    """node id -> bit width for every quantizable node in the graph."""
    return {n.id: n.precision for n in graph.nodes if n.kind in QUANTIZABLE_KINDS}


def select_dequant_set(sens_list, graph: Graph, target_reduction_pct: float,
                       macs: dict[str, int] | None = None) -> list[str]:
    """Walk a sensitivity list head-first, moving whole fusion groups to 32
    bits until the normalized BOPs reduction first drops to the target.

    100 keeps everything int8 (empty list); 0 dequantizes every group.
    """
    from .bops import bops  # local import: bops is pure accounting over ir

    ids = list(getattr(sens_list, "ids", sens_list))
    member_of = {m: g for g in discover_fusion_groups(graph) for m in g.members}
    quantizable = [n.id for n in graph.nodes if n.kind in QUANTIZABLE_KINDS]

    def normalized(keep: list[str]) -> float:
        config = {nid: (32 if nid in keep else 8) for nid in quantizable}
        return bops(graph, config, macs=macs).normalized_reduction_pct

    chosen: list[str] = []
    taken: set[str] = set()
    if normalized(chosen) <= target_reduction_pct:
        return []
    for nid in ids:
        if nid in taken or nid not in member_of:
            continue
        group = member_of[nid]
        chosen.extend(group.members)
        taken.update(group.members)
        if normalized(chosen) <= target_reduction_pct:
            break
    return chosen


def save_node_list(ids, path) -> None:
    """One node id per line, UTF-8; order is significant."""
    Path(path).write_text("".join(f"{nid}\n" for nid in ids), encoding="utf-8")


def load_node_list(path) -> list[str]:
    return [line for line in Path(path).read_text(encoding="utf-8").splitlines() if line]


def save_precision_config(config: dict[str, int], path) -> None:
    Path(path).write_text(json.dumps({"layers": config}, indent=1, sort_keys=True))

