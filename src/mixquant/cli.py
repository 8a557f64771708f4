"""Pipeline driver: synth -> calibrate -> analyze -> quantize -> evaluate -> report.

Each command consumes the previous command's artifacts and is individually
re-runnable; with fixed seeds every artifact is byte-identical across reruns.
All outputs are plain files (JSON/CSV/TXT/BIN); the intended users are build
pipelines, not humans at a prompt.

Exit codes: 0 ok, 2 usage, 3 data error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

from . import model_io
from .bops import bops, macs_by_node
from .calibration import CalibrationProfile, profile_activations
from .errors import (CorruptBlob, InvalidAttribute, InvariantViolation, MissingLabels,
                     MixQuantError, NonFiniteValue, ProvenanceMismatch, UnknownNode,
                     UnknownNodeInList)
from .executor import Executor
from .fusion import STAGES, discover_fusion_groups, lower_to_stage
from .ir import Graph
from .metrics import sqnr
from .quantizer import (
    apply_mixed_precision,
    count_qdq,
    precision_config,
    save_node_list,
    save_precision_config,
    select_dequant_set,
)
from .sensitivity import (
    DEFAULT_MIXUP,
    Reference,
    SensitivityList,
    _predictions,
    baseline_order,
    generate_sensitivity_list,
    logits_node_id,
    reference_pass,
    save_metrics_csv,
)

METHODS = {"delta-mixup": "delta_mixup", "in-order": "in_order",
           "weight-sqnr": "weight_sqnr", "top1": "top1"}


def _sha256(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def model_digest(model_dir) -> str:
    return _sha256(Path(model_dir) / "manifest.json", Path(model_dir) / "weights.bin")


def _write_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def _load_calib(calib, model, digest: str) -> CalibrationProfile:
    """The profile at `calib`, which must come from `model` (whose model_digest
    is `digest`) when it names one."""
    profile = CalibrationProfile.load(_require(calib, "calibrate"))
    if profile.model_digest and profile.model_digest != digest:
        raise ProvenanceMismatch(f"{calib} was calibrated on another model than {model}")
    return profile


def _require(path, produced_by: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{p} does not exist; run `{produced_by}` first")
    return p


def reference_path(images) -> Path:
    """Where synth writes, and evaluate looks for, the FP32 reference outputs
    of an image file: next to it, with `.ref` appended to its name."""
    return Path(str(images) + ".ref")


def save_reference(ref: Reference, path, digests: dict[str, str]) -> None:
    """u32 LE header length, a sorted-key JSON header (`digests`, the logits node
    id and shape, the per-image predictions), then the logits as float32 LE."""
    header = json.dumps({**digests, "node": ref.node, "shape": list(ref.logits.shape),
                         "preds": ref.preds}, sort_keys=True).encode()
    Path(path).write_bytes(struct.pack("<I", len(header)) + header + ref.logits.astype("<f4").tobytes())


def load_reference(path, digests: dict[str, str], count: int) -> Reference | None:
    """The reference in `path`; None when there is no such file or its digests
    differ from `digests`. A match must hold finite logits of `count` images."""
    if not Path(path).is_file():
        return None
    raw = Path(path).read_bytes()
    try:
        (size,) = struct.unpack_from("<I", raw)
        head = json.loads(raw[4:4 + size])
        if any(head[k] != v for k, v in digests.items()):
            return None
        logits = np.frombuffer(raw, "<f4", offset=4 + size).reshape(head["shape"])
        ref = Reference(str(head["node"]), logits, [int(k) for k in head["preds"]])
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise CorruptBlob(f"reference file {path} is malformed: {exc}") from None
    if logits.ndim < 2 or logits.shape[0] != count or len(ref.preds) != count:
        raise CorruptBlob(f"reference file {path} holds logits {logits.shape} and "
                          f"{len(ref.preds)} predictions, for {count} images")
    if not np.isfinite(logits).all():
        raise NonFiniteValue(f"reference file {path} holds NaN or infinite logits")
    return ref


def _quantized_pass(q_graph: Graph, ref: Reference, images: np.ndarray, ex: Executor):
    """One quantized pass per image, capturing only the logits: each image's
    argmax and the mean logit SQNR against `ref`, summed image by image."""
    node = ref.node if ref.node in q_graph else logits_node_id(q_graph)
    preds, logits = _predictions(ex.run_quantized, q_graph, images, node)
    total = 0.0
    for j in range(images.shape[0]):
        total += sqnr(ref.logits[j:j + 1], logits[j:j + 1])
    return preds, total / images.shape[0]


def final_logit_sqnr(q_graph: Graph, ref_graph: Graph, images: np.ndarray,
                     executor: Executor | None = None) -> float:
    """Mean SQNR of the quantized model's logits against FP32, over images."""
    ex = executor or Executor()
    return _quantized_pass(q_graph, reference_pass(ref_graph, images, ex), images, ex)[1]


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> int:
    out = Path(args.out_dir)
    graph = model_io.gen_synthetic(args.arch, args.seed)
    if args.scale_layer:
        if args.scale_layer not in graph:
            raise UnknownNode(f"--scale-layer {args.scale_layer!r}: {args.arch} has no such node")
        if "weight" not in graph.node(args.scale_layer).weights:
            raise InvalidAttribute(f"--scale-layer {args.scale_layer!r}: that node has no weight")
        graph = model_io.scale_node_weights(graph, args.scale_layer, args.scale_factor,
                                            stride=args.scale_stride)
    model_io.save_model(graph, out / "model")
    shape = tuple(int(d) for d in graph.input_node.attrs["shape"])
    calib = model_io.gen_images(args.calib_count, shape, args.seed + 1)
    evalset = model_io.gen_images(args.eval_count, shape, args.seed + 2)
    model_io.save_images(calib, out / "calib_images.bin")
    model_io.save_images(evalset, out / "eval_images.bin")
    ref = reference_pass(graph, evalset)
    model_io.save_labels(ref.preds, out / "labels.json")
    save_reference(ref, reference_path(out / "eval_images.bin"),
                   {"model": model_digest(out / "model"), "images": _sha256(out / "eval_images.bin")})
    print(f"synth: wrote {args.arch} (seed {args.seed}) with {len(graph.nodes)} nodes to {out}")
    return 0


def cmd_calibrate(args) -> int:
    graph = model_io.load_model(_require(args.model, "synth"))
    images = model_io.load_images(_require(args.images, "synth"))
    profile = profile_activations(graph, images)
    profile.model_digest = model_digest(args.model)
    profile.save(args.out)
    print(f"calibrate: profiled {profile.image_count} images over "
          f"{len(profile.profiles)} tensors -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    graph = model_io.load_model(_require(args.model, "synth"))
    digest = model_digest(args.model)
    calib = _load_calib(args.calib, args.model, digest)
    method = METHODS[args.method]
    if method in ("delta_mixup", "top1") and not args.images:
        raise ValueError(f"--images is required for --method {args.method}")
    if method == "top1" and not args.labels:
        raise ValueError("--labels is required for --method top1")
    graph = lower_to_stage(graph, args.ir_stage)
    if method == "delta_mixup":
        images = model_io.load_images(_require(args.images, "synth"))
        sens, samples = generate_sensitivity_list(
            graph, calib, images, mixup=args.mixup_weights, ir_stage=args.ir_stage,
            diagnostics=bool(args.out_metrics))
        if args.out_metrics:
            save_metrics_csv(samples, args.out_metrics)
    else:
        images = labels = None
        if method == "top1":
            images = model_io.load_images(_require(args.images, "synth"))
            labels = model_io.load_labels(_require(args.labels, "synth"))
        sens = baseline_order(graph, method, images=images, labels=labels, calib=calib,
                              top1_budget=args.top1_images)
        sens.ir_stage = args.ir_stage
    if method in ("delta_mixup", "top1"):  # the orderings that read the profile
        sens.calib_digest = _sha256(args.calib)
    sens.model_digest = digest
    sens.save(args.out_list)
    print(f"analyze: method {method}, {len(sens.ids)} layers -> {args.out_list}")
    return 0


def cmd_quantize(args) -> int:
    graph = model_io.load_model(_require(args.model, "synth"))
    digest = model_digest(args.model)
    calib = _load_calib(args.calib, args.model, digest)
    sens = SensitivityList.load(_require(args.list, "analyze"))
    if sens.model_digest and sens.model_digest != digest:
        raise ProvenanceMismatch(f"{args.list} was analyzed on another model than {args.model}")
    calib_sha = _sha256(args.calib)
    if sens.calib_digest and sens.calib_digest != calib_sha:
        raise ProvenanceMismatch(f"{args.list} was analyzed with another calibration than {args.calib}")
    staged = lower_to_stage(graph, args.apply_stage)
    listed = set(sens.ids)
    uncovered = [g.anchor for g in discover_fusion_groups(staged) if listed.isdisjoint(g.members)]
    if uncovered:
        raise UnknownNodeInList(
            f"{args.list} names no member of {len(uncovered)} fusion groups of the model "
            f"({', '.join(uncovered)}); was it made for another model?")
    macs = macs_by_node(staged)
    for target in args.target_reduction:
        keep = select_dequant_set(sens, staged, target, macs=macs)
        qg = apply_mixed_precision(staged, keep, calib)
        tdir = Path(args.out_dir) / f"q{target:g}"
        model_io.save_model(qg, tdir / "model")
        save_node_list(keep, tdir / "dequant_list.txt")
        save_precision_config(precision_config(qg), tdir / "precision.json")
        _write_json({
            "apply_stage": args.apply_stage,
            "ir_stage": sens.ir_stage,
            "method": sens.method,
            "target_reduction_pct": target,
            "list_digest": _sha256(args.list),
            "calib_digest": calib_sha,
        }, tdir / "meta.json")
        print(f"quantize: target {target}% -> {tdir} "
              f"({len(keep)} nodes kept at 32-bit, {count_qdq(qg)} Q-DQ)")
    return 0


def cmd_evaluate(args) -> int:
    qg = model_io.load_model(_require(args.model, "quantize"))
    images = model_io.load_images(_require(args.images, "synth"))
    labels = model_io.load_labels(_require(args.labels, "synth"))
    digests = {
        "model": model_digest(args.model),
        "ref_model": model_digest(_require(args.ref_model, "synth")),
        "images": _sha256(args.images),
    }
    ref = load_reference(reference_path(args.images), {
        "model": digests["ref_model"], "images": digests["images"]}, images.shape[0])
    if ref is None:
        ref = reference_pass(model_io.load_model(args.ref_model), images)
    report = evaluate_model(qg, ref, images, labels)
    report["digests"] = digests
    meta_path = Path(args.model).parent / "meta.json"
    if meta_path.exists():
        report["run"] = json.loads(meta_path.read_text())
    _write_json(report, args.out)
    print(f"evaluate: accuracy {report['accuracy']:.4f}, "
          f"logit SQNR {report['final_logit_sqnr_db']:.2f} dB, "
          f"{report['qdq_count']} Q-DQ -> {args.out}")
    return 0


def evaluate_model(qg: Graph, ref: Reference, images: np.ndarray, labels,
                   executor: Executor | None = None) -> dict:
    """Accuracy of both models and the quantized model's logit SQNR, from the
    FP32 reference outputs and one quantized pass per image."""
    labels = list(labels)
    if images.shape[0] != len(labels):
        raise MissingLabels(f"{images.shape[0]} images but {len(labels)} labels")
    preds, db = _quantized_pass(qg, ref, images, executor or Executor())
    report = bops(qg, precision_config(qg))
    return {
        "accuracy": sum(int(p == label) for p, label in zip(preds, labels)) / images.shape[0],
        "ref_accuracy": sum(int(p == label) for p, label in zip(ref.preds, labels)) / images.shape[0],
        "final_logit_sqnr_db": db,
        "qdq_count": count_qdq(qg),
        "bops": report.to_json(),
    }


def cmd_report(args) -> int:
    rows = []
    for path in args.runs:
        doc = json.loads(_require(path, "evaluate").read_text())
        run = doc.get("run", {})
        rows.append({
            "method": run.get("method", "unknown"),
            "target_reduction_pct": run.get("target_reduction_pct", ""),
            "normalized_reduction_pct": doc["bops"]["normalized_reduction_pct"],
            "literal_reduction_pct": doc["bops"]["literal_reduction_pct"],
            "accuracy": doc["accuracy"],
            "final_logit_sqnr_db": doc["final_logit_sqnr_db"],
            "qdq_count": doc["qdq_count"],
        })
    rows.sort(key=lambda r: (r["method"], r["normalized_reduction_pct"]))
    cols = ["method", "target_reduction_pct", "normalized_reduction_pct",
            "literal_reduction_pct", "accuracy", "final_logit_sqnr_db", "qdq_count"]
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        writer.writerows(rows)
    print(f"report: {len(rows)} sweep points -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _percent_list(text: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one reduction, got {text!r}")
    bad = [v for v in values if not 0.0 <= v <= 100.0]
    if bad:
        raise argparse.ArgumentTypeError(f"reductions must lie in [0, 100], got {bad[0]:g}")
    return values


def _weight_pair(text: str) -> tuple[float, float]:
    values = tuple(float(x) for x in text.split(","))
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated weights, got {text!r}")
    if not all(0.0 <= v < float("inf") for v in values):
        raise argparse.ArgumentTypeError(f"weights must be finite and >= 0, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixquant",
        description="Mixed-precision post-training quantization pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic model plus image sets")
    p.add_argument("--arch", required=True, choices=["mininet", "mini_resnet", "mini_mobilenet"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--calib-count", type=_positive_int, default=100)
    p.add_argument("--eval-count", type=_positive_int, default=64)
    p.add_argument("--scale-layer", default=None,
                   help="scale one node's weights (pathology construction)")
    p.add_argument("--scale-factor", type=_finite_float, default=50.0)
    p.add_argument("--scale-stride", type=_positive_int, default=64,
                   help="scale every N-th weight element; >1 makes the tail heavy")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("calibrate", help="profile activation ranges")
    p.add_argument("--model", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("analyze", help="generate a sensitivity list")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--images", default=None)
    p.add_argument("--labels", default=None, help="needed for --method top1")
    p.add_argument("--method", default="delta-mixup", choices=sorted(METHODS))
    p.add_argument("--ir-stage", default="unfused", choices=STAGES)
    p.add_argument("--mixup-weights", type=_weight_pair, default=DEFAULT_MIXUP,
                   metavar="W_WEIGHT,W_ACT")
    p.add_argument("--top1-images", type=_positive_int, default=50)
    p.add_argument("--out-list", required=True)
    p.add_argument("--out-metrics", default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("quantize", help="apply mixed precision at target reductions")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--list", required=True, help="sensitivity list file")
    p.add_argument("--target-reduction", type=_percent_list, required=True,
                   metavar="PCT[,PCT...]")
    p.add_argument("--apply-stage", default="fused", choices=STAGES)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("evaluate", help="accuracy / logit SQNR / Q-DQ / BOPs of a model")
    p.add_argument("--model", required=True, help="quantized model directory")
    p.add_argument("--ref-model", required=True, help="FP32 reference model directory")
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("report", help="aggregate evaluate outputs into a recovery curve")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except (MixQuantError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
