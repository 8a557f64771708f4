"""Operator fusion: conv+BN weight folding, conv+ReLU scale substitution,
and fusion-group discovery.

Folding a BatchNorm into the preceding conv rewrites weights to
W' = W * gamma / sqrt(var + eps) and bias to
B' = (B - mean) * gamma / sqrt(var + eps) + beta, eliminating the BN node.

Fusing a ReLU into a conv marks the conv to clamp its output at zero and
routes the conv's output quantization to the ReLU's calibrated range, so the
int8 path quantizes once with the post-activation scale instead of
quantizing at the conv scale and requantizing after the ReLU.

A fused node keeps its own id but records `profile_id` (the id of the
original node whose activation range now describes its output) so
calibration profiles gathered on the unfused graph stay valid after fusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveVariance
from .ir import Graph, Node, QUANTIZABLE_KINDS, Tensor, topo_sort

_CONV_KINDS = ("Conv2d", "DepthwiseConv2d")


@dataclass(frozen=True)
class FusionGroup:
    """A conv-anchored chain (conv[, bn][, add][, relu]) sharing one precision.

    Quantizable nodes outside any chain form singleton groups, so every
    quantizable node belongs to exactly one group.
    """

    anchor: str
    members: tuple[str, ...]


def _consumer_index(graph: Graph) -> dict[str, list[str]]:
    """node id -> ids of the distinct nodes that read it, in node order."""
    index: dict[str, list[str]] = {n.id: [] for n in graph.nodes}
    for n in graph.nodes:
        for src in dict.fromkeys(n.inputs):
            index[src].append(n.id)
    return index


def discover_fusion_groups(graph: Graph) -> tuple[FusionGroup, ...]:
    """Partition the quantizable nodes into fusion groups, anchors in topo
    order; made once per graph."""
    return graph.derived("groups", _groups_of)


def _group_of(graph: Graph) -> dict[str, FusionGroup]:
    """member id -> its fusion group; made once per graph."""
    return graph.derived("group_of", lambda g: {m: grp for grp in discover_fusion_groups(g) for m in grp.members})


def _groups_of(graph: Graph) -> tuple[FusionGroup, ...]:
    order, consumers = topo_sort(graph), _consumer_index(graph)
    kind = {n.id: n.kind for n in graph.nodes}
    taken: set[str] = set()
    groups: list[FusionGroup] = []

    def sole_consumer(node_id: str, want: str):
        ids = consumers[node_id]
        return ids[0] if len(ids) == 1 and kind[ids[0]] == want and ids[0] not in taken else None

    for nid in order:
        if kind[nid] not in _CONV_KINDS or nid in taken:
            continue
        members = [nid]
        for want in ("BatchNorm", "Add", "ReLU"):
            nxt = sole_consumer(members[-1], want)
            if nxt is not None:
                members.append(nxt)
        taken.update(members)
        groups.append(FusionGroup(nid, tuple(members)))
    for nid in order:
        if kind[nid] in QUANTIZABLE_KINDS and nid not in taken:
            taken.add(nid)
            groups.append(FusionGroup(nid, (nid,)))
    pos = {nid: i for i, nid in enumerate(order)}
    groups.sort(key=lambda g: pos[g.anchor])
    return tuple(groups)


def _fold_into_convs(graph: Graph, kind: str, fold) -> Graph:
    """Fold every `kind` node that solely consumes a conv into that conv.

    One scan in topological order: `fold(conv, node)` returns the rewritten
    conv, or None to leave the pair alone. A folded node's consumers read the
    conv from then on, so a chain such as conv -> BN -> BN folds completely.
    Nodes keep their order; folded ones are dropped.
    """
    consumer_count = {nid: len(ids) for nid, ids in _consumer_index(graph).items()}
    convs: dict[str, Node] = {}   # conv id -> conv with every fold so far
    rename: dict[str, str] = {}   # folded node id -> conv id
    for nid in topo_sort(graph):
        node = graph.node(nid)
        if node.kind != kind:
            continue
        src = rename.get(node.inputs[0], node.inputs[0])
        conv = convs.get(src, graph.node(src))
        if conv.kind not in _CONV_KINDS or consumer_count[src] != 1:
            continue
        folded = fold(conv, node)
        if folded is not None:
            convs[src] = folded
            rename[nid] = src
            consumer_count[src] = consumer_count[nid]
    out = Graph(graph.name)
    for n in graph.nodes:
        if n.id not in rename:
            n = convs.get(n.id, n).copy()
            n.inputs = [rename.get(s, s) for s in n.inputs]
            out.add(n)
    return out


def _fold_bn(conv: Node, bn: Node) -> Node:
    gamma = bn.weights["gamma"].data.astype(np.float64)
    beta = bn.weights["beta"].data.astype(np.float64)
    mean = bn.weights["mean"].data.astype(np.float64)
    var = bn.weights["var"].data.astype(np.float64)
    eps = float(bn.attrs.get("epsilon", 1e-5))
    if np.any(var < 0):
        raise NonPositiveVariance(f"{bn.id}: negative variance")
    scale = gamma / np.sqrt(var + eps)

    w = conv.weights["weight"].data.astype(np.float64)
    b = conv.weights.get("bias")
    b = b.data.astype(np.float64) if b is not None else np.zeros(w.shape[0])
    conv = conv.copy()
    conv.weights = {
        "weight": Tensor((w * scale[:, None, None, None]).astype(np.float32)),
        "bias": Tensor(((b - mean) * scale + beta).astype(np.float32)),
    }
    conv.attrs["profile_id"] = bn.attrs.get("profile_id", bn.id)
    return conv


def _fold_relu(conv: Node, relu: Node) -> Node | None:
    if conv.attrs.get("fused_relu"):
        return None
    conv = conv.copy()
    conv.attrs["fused_relu"] = True
    conv.attrs["profile_id"] = relu.attrs.get("profile_id", relu.id)
    return conv


def fuse_conv_bn(graph: Graph) -> Graph:
    """Fold every BatchNorm that solely consumes a conv into that conv's weights."""
    return _fold_into_convs(graph, "BatchNorm", _fold_bn)


def fuse_conv_relu(graph: Graph) -> Graph:
    """Fold every ReLU that solely consumes a conv into that conv's requantize.

    The conv gains `fused_relu` (a clamp at zero, exact in FP32) and inherits
    the ReLU's profile id, which eliminates the intermediate conv-output scale
    on the int8 path.
    """
    return _fold_into_convs(graph, "ReLU", _fold_relu)


STAGES = ("unfused", "fused")


def lower_to_stage(graph: Graph, stage: str) -> Graph:
    """Lower to an IR stage: `unfused` is the identity, `fused` applies conv+BN
    folding then conv+ReLU fusion exhaustively. The BN scan runs first: one
    interleaved scan would fold the BN of conv -> ReLU -> BN into a conv whose
    output is already clamped."""
    if stage == "unfused":
        return graph.copy()
    if stage == "fused":
        return fuse_conv_relu(fuse_conv_bn(graph))
    raise ValueError(f"unknown IR stage {stage!r}; choose from {STAGES}")
