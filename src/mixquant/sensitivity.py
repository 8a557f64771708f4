"""Sensitivity-list generation: the two-inference metric sweep, layer ranking,
fusion-group position adjustment, and the three baseline orderings.

The main generator runs the fully-int8 model once per calibration image and
then the FP32 model once per image: two full passes per image total, linear
in model parameters and independent of how many bit-width configurations
exist. Per batch, the int8 pass's observers, keyed by layer, keep each
layer's output as its int8 codes; the FP32 pass's score each layer's output
as the step makes it, against those codes dequantized, and drop both, so no
trace is held. Per layer it derives weight SQNR (FP32 weights vs
dequantized int8 weights), mean activation SQNR/MSE (FP32 outputs vs
dequantized int8 outputs), and the weight/activation SQNR deltas.

Ranking combines the two delta signals by rank, not by raw value: weight-dB
and activation-dB deltas live on different scales, and rank combination makes
the weighted mixup invariant to rescaling either signal. Layers whose mean
activation MSE exceeds five times the average are pulled out and prepended,
worst first, ahead of the delta ordering.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .calibration import CalibrationProfile, weight_qparams
from .errors import CorruptBlob, EmptyImageBatch, KeyMismatch, MissingLabels, ShapeMismatch
from .executor import Executor, batch_size, image_batches, live_before
from .fusion import discover_fusion_groups
from .ir import Graph, Node, QUANTIZABLE_KINDS, Tensor, WEIGHTED_KINDS, topo_sort
from .metrics import SENTINEL_DB, cosine_similarity, kl_divergence, row_powers, sqnr_db, sqnr_delta
from .model_io import read_json_object
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
        meta = {k: v for k, v in asdict(self).items() if k != "ids"}
        Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))

    @classmethod
    def load(cls, path) -> "SensitivityList":
        ids = load_node_list(path)
        meta_path = Path(str(path) + ".meta.json")
        meta = read_json_object(meta_path) if meta_path.exists() else {}
        mixup = meta.get("mixup", DEFAULT_MIXUP)
        if not (isinstance(mixup, (list, tuple)) and len(mixup) == 2
                and all(type(w) in (int, float) for w in mixup)):
            raise CorruptBlob(f"{meta_path}: 'mixup' holds {mixup!r}, not a list of two numbers")
        return cls(ids, meta.get("method", "unknown"), meta.get("ir_stage", "unfused"),
                   meta.get("calib_digest", ""), tuple(mixup), meta.get("model_digest", ""))


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

    outliers = {nid for nid in keys if mse_by_layer[nid] > MSE_OUTLIER_FACTOR * mse_mean}
    return (sorted(outliers, key=lambda nid: (-mse_by_layer[nid], pos[nid]))
            + [nid for nid in ordered if nid not in outliers])


def _group_adjusted(graph: Graph, ranked: list[str]) -> list[str]:
    """Make fusion-group members contiguous behind their anchor; a group sits
    at its anchor's rank and members inherit the adjacent positions."""
    member_of = {m: g for g in discover_fusion_groups(graph) for m in g.members}
    return [m for nid in ranked if member_of[nid].anchor == nid for m in member_of[nid].members]


def _weight_noise(node: Node) -> tuple[float, float]:
    """A node's weight SQNR in dB and MSE against its int8 weights
    dequantized: the sentinel and 0.0 without quantized weights."""
    if node.kind not in WEIGHTED_KINDS:
        return SENTINEL_DB, 0.0
    w = node.weights["weight"]
    signal, noise = row_powers(w, dequantize(quantize_affine(w, weight_qparams(w))), rows=1)
    return sqnr_db(float(signal[0]), float(noise[0])), float(noise[0])


def generate_sensitivity_list(graph: Graph, calib: CalibrationProfile, images: np.ndarray,
                              mixup: tuple[float, float] = DEFAULT_MIXUP,
                              executor: Executor | None = None, diagnostics: bool = False,
                              ) -> tuple[SensitivityList, list[MetricSample]]:
    """Two-inference sensitivity analysis over the whole model.

    Exactly 2 * image_count full-graph passes are performed regardless of
    layer count: per batch, one fully-int8 pass, which keeps each layer's
    codes, then one FP32 pass, which scores each layer as its step makes it
    and releases its codes; nothing is held from one batch to the next, and
    the batch is sized for both passes. The ranking reads
    only SQNR and MSE; activation cosine and KL, which only metrics.csv shows,
    are computed when `diagnostics` is set and stay None otherwise. The list's
    calib_digest and ir_stage are left for the caller, who knows the profile's
    file and the graph's stage.
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
    codes: dict[str, Tensor] = {}  # the int8 pass's outputs, until the FP32 pass scores them

    def score(nid: str, t: Tensor) -> None:
        ref, got = t.data, dequantize(codes.pop(nid)).data
        signal, noise = row_powers(ref, got)
        for p_signal, p_noise in zip(signal.tolist(), noise.tolist()):
            act_sqnr_acc[nid] += sqnr_db(p_signal, p_noise)
            act_mse_acc[nid] += p_noise
        if diagnostics:
            for j in range(ref.shape[0]):
                act_cos_acc[nid] += cosine_similarity(ref[j:j + 1], got[j:j + 1])
                act_kl_acc[nid] += kl_divergence(ref[j:j + 1], got[j:j + 1])

    for batch in image_batches(images, batch_size(q_graph, keep=qids),
                               batch_size(graph, compare=(q_graph, qids))):
        ex.run_quantized(q_graph, batch, observe={nid: partial(codes.__setitem__, nid) for nid in qids})
        ex.run_fp32(graph, batch, observe={nid: partial(score, nid) for nid in qids})

    samples: list[MetricSample] = []
    for layer_index, nid in enumerate(qids):
        w_sqnr, w_mse = _weight_noise(graph.node(nid))
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
    sens = SensitivityList(ids, method="delta_mixup", mixup=mixup)
    return sens, samples


def baseline_order(graph: Graph, method: str, images: np.ndarray | None = None,
                   labels=None, calib: CalibrationProfile | None = None,
                   executor: Executor | None = None, top1_budget: int = 50) -> SensitivityList:
    """The comparison orderings: in_order (plain topological group order),
    weight_sqnr (groups ascending by anchor weight SQNR), and top1 (quantize
    one group at a time, biggest labeled-accuracy drop first). top1 makes one
    FP32 pass per batch, paused at each group's anchor, where the graph with
    only that group int8 resumes: groups + 1 image-passes per image."""
    groups = discover_fusion_groups(graph)
    if method == "in_order":
        ids = [m for g in groups for m in g.members]
        return SensitivityList(ids, method="in_order")

    if method == "weight_sqnr":
        order = {g.anchor: i for i, g in enumerate(groups)}
        ranked = sorted(groups, key=lambda g: (_weight_noise(graph.node(g.anchor))[0], order[g.anchor]))
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
        all_q = quantizable_in_topo_order(graph)
        # each group's graph differs from the FP32 one from the group's anchor,
        # its first step, on: it resumes from the FP32 values live there
        qgs = {g.anchor: apply_mixed_precision(graph, [n for n in all_q if n not in g.members], calib)
               for g in groups}
        live = {a: live_before(graph, a) for a in qgs}
        preds: dict[str, list[int]] = {a: [] for a in qgs}
        for batch in image_batches(images, batch_size(graph),
                                   *(batch_size(qgs[a], given=live[a]) for a in qgs)):
            def resume(anchor):
                return lambda values: preds[anchor].extend(
                    _argmax(ex.run_quantized(qgs[anchor], batch, given=values)))
            ex.run_fp32(graph, batch, pause={a: resume(a) for a in qgs})
        # every drop is from the same FP32 accuracy: the lowest accuracy drops most
        accs = [top1_accuracy(preds[g.anchor], labels) for g in groups]
        ranked = sorted(range(len(groups)), key=lambda i: (accs[i], i))
        ids = [m for i in ranked for m in groups[i].members]
        return SensitivityList(ids, method="top1")

    raise ValueError(f"unknown baseline method {method!r}")


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
    """Any graph's outputs over `images`, one pass per image in batches that
    observe only the logits node and keep its outputs: run_fp32 when every
    node is FP32, run_quantized otherwise. Int8 scores reach Softmax through
    a Dequantize adapter, which is then the logits node; logits a graph
    leaves as codes are dequantized once the passes are done."""
    if images.ndim != 4 or images.shape[0] < 1:
        raise EmptyImageBatch("a scoring pass needs at least one image")
    ex = executor or Executor()
    run = ex.run_fp32 if all(n.precision == 32 for n in graph.nodes) else ex.run_quantized
    node = logits_node_id(graph)
    preds, rows = [], []
    for batch in image_batches(images, batch_size(graph, keep=[node])):
        preds.extend(_argmax(run(graph, batch, observe={node: rows.append})))
    logits = [(t if t.qparams is None else dequantize(t)).data for t in rows]
    return Reference(node, np.concatenate(logits), preds)


def _argmax(out: Tensor) -> list[int]:
    """Each image's argmax of a pass's output."""
    return [int(k) for k in np.argmax(out.data.reshape(out.shape[0], -1), axis=1)]


def top1_accuracy(preds: list[int], labels: list[int]) -> float:
    """Share of images whose prediction equals their label."""
    if len(preds) != len(labels):
        raise MissingLabels(f"{len(preds)} images but {len(labels)} labels")
    if not preds:
        raise EmptyImageBatch("top-1 accuracy needs at least one image")
    return sum(int(p == label) for p, label in zip(preds, labels)) / len(preds)


def mean_logit_sqnr(ref_logits: np.ndarray, logits: np.ndarray) -> float:
    """Mean over images of the SQNR of `logits` against `ref_logits`, one row
    per image, summed left to right (`sum` compensates from Python 3.12)."""
    if ref_logits.shape != logits.shape:
        raise ShapeMismatch(f"reference logits {ref_logits.shape} against {logits.shape}")
    if ref_logits.shape[0] == 0:
        raise EmptyImageBatch("logit SQNR needs at least one image")
    signal, noise = row_powers(ref_logits, logits)
    total = 0.0
    for p_signal, p_noise in zip(signal.tolist(), noise.tolist()):
        total += sqnr_db(p_signal, p_noise)
    return total / ref_logits.shape[0]


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
