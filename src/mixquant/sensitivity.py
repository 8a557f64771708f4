"""Sensitivity-list generation: the two-inference metric sweep, layer ranking,
fusion-group position adjustment, and the three baseline orderings.

The main generator runs the FP32 model once per calibration image and the
fully-int8 model once per image: two full passes per image total, linear in
model parameters and independent of how many bit-width configurations exist.
Per layer it derives weight SQNR (FP32 weights vs dequantized int8 weights),
mean activation SQNR/MSE (FP32 trace vs dequantized int8 trace), and the
weight/activation SQNR deltas.

Ranking combines the two delta signals by rank, not by raw value: weight-dB
and activation-dB deltas live on different scales, and rank combination makes
the weighted mixup invariant to rescaling either signal. Layers whose mean
activation MSE exceeds five times the average are pulled out and prepended,
worst first, ahead of the delta ordering.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .calibration import CalibrationProfile, weight_qparams
from .errors import EmptyImageBatch, KeyMismatch, MissingLabels
from .executor import Executor, image_batches
from .fusion import discover_fusion_groups
from .ir import Graph, QUANTIZABLE_KINDS, WEIGHTED_KINDS, topo_sort
from .metrics import SENTINEL_DB, cosine_similarity, kl_divergence, mse, sqnr, sqnr_delta
from .quantizer import (apply_mixed_precision, dequantize, load_node_list, quantize_affine,
                        save_node_list)

DEFAULT_MIXUP = (0.6, 0.4)
MSE_OUTLIER_FACTOR = 5.0


@dataclass
class MetricSample:
    """Per-layer metric bundle; activation values are means over images."""

    node_id: str
    layer_index: int
    weight_sqnr: float
    act_sqnr: float
    weight_mse: float
    act_mse: float
    weight_delta: float = 0.0
    act_delta: float = 0.0
    act_cosine: float | None = None
    act_kl: float | None = None


@dataclass
class SensitivityList:
    """Ordered node ids, most quantization-sensitive first, plus provenance."""

    ids: list[str]
    method: str = "delta_mixup"
    ir_stage: str = "unfused"
    calib_digest: str = ""
    mixup: tuple[float, float] = DEFAULT_MIXUP
    model_digest: str = ""

    def save(self, path) -> None:
        save_node_list(self.ids, path)
        meta = {
            "method": self.method,
            "ir_stage": self.ir_stage,
            "calib_digest": self.calib_digest,
            "mixup": list(self.mixup),
            "model_digest": self.model_digest,
        }
        Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))

    @classmethod
    def load(cls, path) -> "SensitivityList":
        ids = load_node_list(path)
        meta_path = Path(str(path) + ".meta.json")
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        return cls(ids, meta.get("method", "unknown"), meta.get("ir_stage", "unfused"),
                   meta.get("calib_digest", ""), tuple(meta.get("mixup", DEFAULT_MIXUP)),
                   meta.get("model_digest", ""))


def quantizable_in_topo_order(graph: Graph) -> list[str]:
    order = topo_sort(graph)
    return [nid for nid in order if graph.node(nid).kind in QUANTIZABLE_KINDS]


def _stable_ranks(values: dict[str, float], base_order: list[str]) -> dict[str, int]:
    """Ascending rank of each value; ties resolve by base_order position."""
    pos = {nid: i for i, nid in enumerate(base_order)}
    ordered = sorted(values, key=lambda nid: (values[nid], pos[nid]))
    return {nid: r for r, nid in enumerate(ordered)}


def rank_layers_by_sensitivity(deltas_w: dict[str, float], deltas_a: dict[str, float],
                               mse_by_layer: dict[str, float], mse_mean: float,
                               mixup: tuple[float, float] = DEFAULT_MIXUP) -> list[str]:
    """Order layers most-sensitive-first from delta ranks and MSE outliers.

    Combined score = w_w * rank(weight delta) + w_a * rank(activation delta),
    ranks ascending so the most negative delta scores 0; layers sort ascending
    by score with the key-insertion order of `deltas_w` as the tie-break.
    Layers with mse > 5 * mse_mean are removed from that ordering and
    prepended, sorted among themselves by descending MSE.
    """
    keys = list(deltas_w)
    if set(keys) != set(deltas_a) or set(keys) != set(mse_by_layer):
        raise KeyMismatch("metric maps must share one key set")
    w_w, w_a = mixup
    rank_w = _stable_ranks(deltas_w, keys)
    rank_a = _stable_ranks(deltas_a, keys)
    pos = {nid: i for i, nid in enumerate(keys)}
    score = {nid: w_w * rank_w[nid] + w_a * rank_a[nid] for nid in keys}
    ordered = sorted(keys, key=lambda nid: (score[nid], pos[nid]))

    outliers = [nid for nid in keys if mse_by_layer[nid] > MSE_OUTLIER_FACTOR * mse_mean]
    outliers.sort(key=lambda nid: (-mse_by_layer[nid], pos[nid]))
    return outliers + [nid for nid in ordered if nid not in set(outliers)]


def _group_adjusted(graph: Graph, ranked: list[str]) -> list[str]:
    """Make fusion-group members contiguous behind their anchor; a group sits
    at its anchor's rank and members inherit the adjacent positions."""
    member_of = {m: g for g in discover_fusion_groups(graph) for m in g.members}
    out: list[str] = []
    emitted: set[str] = set()
    for nid in ranked:
        group = member_of[nid]
        if group.anchor != nid or group.anchor in emitted:
            continue
        out.extend(group.members)
        emitted.update(group.members)
    # safety net: anything whose anchor never appeared in `ranked`
    for nid in ranked:
        if nid not in emitted:
            out.append(nid)
            emitted.add(nid)
    return out


def generate_sensitivity_list(graph: Graph, calib: CalibrationProfile, images: np.ndarray,
                              mixup: tuple[float, float] = DEFAULT_MIXUP,
                              executor: Executor | None = None,
                              ir_stage: str = "unfused", diagnostics: bool = False,
                              ) -> tuple[SensitivityList, list[MetricSample]]:
    """Two-inference sensitivity analysis over the whole model.

    Exactly 2 * image_count full-graph passes are performed regardless of
    layer count: one FP32 and one fully-int8 pass per image. The ranking reads
    only SQNR and MSE; activation cosine and KL, which only metrics.csv shows,
    are computed when `diagnostics` is set and stay None otherwise. The list's
    calib_digest is left for the caller, who knows the profile's file.
    """
    if images.ndim != 4 or images.shape[0] < 1:
        raise EmptyImageBatch("sensitivity analysis needs at least one image")
    ex = executor or Executor()
    qids = quantizable_in_topo_order(graph)
    q_graph = apply_mixed_precision(graph, [], calib)

    n_images = images.shape[0]
    act_sqnr_acc = {nid: 0.0 for nid in qids}
    act_mse_acc = {nid: 0.0 for nid in qids}
    act_cos_acc = {nid: 0.0 for nid in qids}
    act_kl_acc = {nid: 0.0 for nid in qids}
    for batch in image_batches(images, (graph, qids), (q_graph, qids)):
        _, ref_trace = ex.run_fp32(graph, batch, capture=qids)
        _, q_trace = ex.run_quantized(q_graph, batch, capture=qids)
        for j in range(batch.shape[0]):
            for nid in qids:
                ref = ref_trace.outputs[nid].data[j:j + 1]
                got = q_trace.outputs[nid].data[j:j + 1]
                act_sqnr_acc[nid] += sqnr(ref, got)
                act_mse_acc[nid] += mse(ref, got)
                if diagnostics:
                    act_cos_acc[nid] += cosine_similarity(ref, got)
                    act_kl_acc[nid] += kl_divergence(ref, got)

    samples: list[MetricSample] = []
    for layer_index, nid in enumerate(qids):
        node = graph.node(nid)
        if node.kind in WEIGHTED_KINDS:
            w = node.weights["weight"]
            w_hat = dequantize(quantize_affine(w, weight_qparams(w)))
            w_sqnr, w_mse = sqnr(w, w_hat), mse(w, w_hat)
        else:
            w_sqnr, w_mse = SENTINEL_DB, 0.0  # no quantized weights, no weight noise
        samples.append(MetricSample(
            node_id=nid, layer_index=layer_index,
            weight_sqnr=w_sqnr, weight_mse=w_mse,
            act_sqnr=act_sqnr_acc[nid] / n_images,
            act_mse=act_mse_acc[nid] / n_images,
            act_cosine=act_cos_acc[nid] / n_images if diagnostics else None,
            act_kl=act_kl_acc[nid] / n_images if diagnostics else None,
        ))

    weighted = [s for s in samples if graph.node(s.node_id).kind in WEIGHTED_KINDS]
    for s, delta in zip(weighted, sqnr_delta([(s.layer_index, s.weight_sqnr) for s in weighted])):
        s.weight_delta = delta
    for s, delta in zip(samples, sqnr_delta([(s.layer_index, s.act_sqnr) for s in samples])):
        s.act_delta = delta

    mse_values = [s.act_mse for s in samples]
    ranked = rank_layers_by_sensitivity(
        {s.node_id: s.weight_delta for s in samples},
        {s.node_id: s.act_delta for s in samples},
        {s.node_id: s.act_mse for s in samples},
        float(np.mean(mse_values)),
        mixup=mixup,
    )
    ids = _group_adjusted(graph, ranked)
    sens = SensitivityList(ids, method="delta_mixup", ir_stage=ir_stage, mixup=mixup)
    return sens, samples


def baseline_order(graph: Graph, method: str, images: np.ndarray | None = None,
                   labels=None, calib: CalibrationProfile | None = None,
                   executor: Executor | None = None, top1_budget: int = 50) -> SensitivityList:
    """The comparison orderings: in_order (plain topological group order),
    weight_sqnr (groups ascending by anchor weight SQNR), and top1 (quantize
    one group at a time, biggest labeled-accuracy drop first)."""
    groups = discover_fusion_groups(graph)
    if method == "in_order":
        ids = [m for g in groups for m in g.members]
        return SensitivityList(ids, method="in_order")

    if method == "weight_sqnr":
        def anchor_sqnr(g):
            node = graph.node(g.anchor)
            if node.kind not in WEIGHTED_KINDS:
                return SENTINEL_DB
            w = node.weights["weight"]
            return sqnr(w, dequantize(quantize_affine(w, weight_qparams(w))))
        order = {g.anchor: i for i, g in enumerate(groups)}
        ranked = sorted(groups, key=lambda g: (anchor_sqnr(g), order[g.anchor]))
        return SensitivityList([m for g in ranked for m in g.members], method="weight_sqnr")

    if method == "top1":
        if labels is None:
            raise MissingLabels("top1 ordering needs a labeled evaluation batch")
        if images is None or images.shape[0] < 1:
            raise EmptyImageBatch("top1 ordering needs images")
        if calib is None:
            raise ValueError("top1 ordering needs a calibration profile to quantize with")
        ex = executor or Executor()
        images = images[:top1_budget]
        labels = list(labels)[:images.shape[0]]
        base_acc = evaluate_accuracy(graph, images, labels, ex, quantized=False)
        all_q = quantizable_in_topo_order(graph)
        drops = []
        for idx, g in enumerate(groups):
            keep = [nid for nid in all_q if nid not in set(g.members)]
            qg = apply_mixed_precision(graph, keep, calib)
            acc = evaluate_accuracy(qg, images, labels, ex, quantized=True)
            drops.append((base_acc - acc, idx))
        ranked = sorted(range(len(groups)), key=lambda i: (-drops[i][0], i))
        ids = [m for i in ranked for m in groups[i].members]
        return SensitivityList(ids, method="top1")

    raise ValueError(f"unknown baseline method {method!r}")


def evaluate_accuracy(graph: Graph, images: np.ndarray, labels, executor: Executor | None = None,
                      quantized: bool = True) -> float:
    """Top-1 accuracy of the graph's argmax against the given labels."""
    ex = executor or Executor()
    labels = list(labels)
    if images.shape[0] != len(labels):
        raise MissingLabels(f"{images.shape[0]} images but {len(labels)} labels")
    preds, _ = _predictions(ex.run_quantized if quantized else ex.run_fp32, graph, images)
    return sum(int(p == label) for p, label in zip(preds, labels)) / images.shape[0]


def logits_node_id(graph: Graph) -> str:
    """The node producing the pre-softmax scores (softmax's input, or the
    output's input when there is no softmax)."""
    softmax = [n for n in graph.nodes if n.kind == "Softmax"]
    return softmax[0].inputs[0] if softmax else graph.output_node.inputs[0]


class Reference(NamedTuple):
    """A model's outputs over an image set: the logits node id, that node's
    float32 outputs (one row per image) and each image's argmax of the output."""

    node: str
    logits: np.ndarray
    preds: list[int]


def reference_pass(graph: Graph, images: np.ndarray, executor: Executor | None = None) -> Reference:
    """One FP32 pass per image, capturing only the logits."""
    node = logits_node_id(graph)
    preds, logits = _predictions((executor or Executor()).run_fp32, graph, images, node)
    return Reference(node, logits, preds)


def teacher_labels(graph: Graph, images: np.ndarray, executor: Executor | None = None) -> list[int]:
    """Argmax of the FP32 model's own outputs: the 100%-baseline labeling."""
    return reference_pass(graph, images, executor).preds


def _predictions(run, graph: Graph, images: np.ndarray, logits: str | None = None):
    """Per-image argmax of the graph's output over batched passes of `run`,
    and node `logits`'s float32 outputs, one row per image, when it is named."""
    capture = [logits] if logits else []
    preds, rows = [], []
    for batch in image_batches(images, (graph, capture)):
        out, trace = run(graph, batch, capture=capture)
        preds.extend(int(k) for k in np.argmax(out.data.reshape(batch.shape[0], -1), axis=1))
        rows.extend(t.data for t in trace.outputs.values())
    return preds, np.concatenate(rows) if rows else None


CSV_COLUMNS = ["id", "layer_index", "weight_sqnr", "act_sqnr", "weight_delta",
               "act_delta", "act_mse", "weight_mse", "act_cosine", "act_kl"]


def save_metrics_csv(samples: list[MetricSample], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for s in samples:
            writer.writerow([
                s.node_id, s.layer_index, repr(s.weight_sqnr), repr(s.act_sqnr),
                repr(s.weight_delta), repr(s.act_delta), repr(s.act_mse), repr(s.weight_mse),
                "" if s.act_cosine is None else repr(s.act_cosine),
                "" if s.act_kl is None else repr(s.act_kl),
            ])
