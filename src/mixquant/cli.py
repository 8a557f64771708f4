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
import functools
import hashlib
import json
import math
import struct
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import model_io
from .bops import bops
from .calibration import CalibrationProfile, profile_activations
from .errors import (CorruptBlob, InvalidAttribute, InvariantViolation, MixQuantError,
                     NonFiniteValue, ProvenanceMismatch, UnknownNode, UnknownNodeInList)
from .executor import Executor
from .fusion import STAGES, discover_fusion_groups, lower_to_stage
from .ir import Graph
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
    baseline_order,
    generate_sensitivity_list,
    mean_logit_sqnr,
    reference_pass,
    save_metrics_csv,
    top1_accuracy,
)

METHODS = {"delta-mixup": "delta_mixup", "in-order": "in_order",
           "weight-sqnr": "weight_sqnr", "top1": "top1"}

# member types of the run that quantize records in q<T>/meta.json and
# evaluate copies into its report
_NUMBER = int | float
_RUN = {"method": str | None, "target_reduction_pct": _NUMBER | None}


def _sha256(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def model_digest(model_dir) -> str:
    return _sha256(Path(model_dir) / "manifest.json", Path(model_dir) / "weights.bin")


def _write_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def _check_provenance(recorded: str | None, actual: str, mismatch: str) -> None:
    """ProvenanceMismatch(`mismatch`) when an artifact records the digest of
    another input than the one at hand; one that records none passes."""
    if recorded and recorded != actual:
        raise ProvenanceMismatch(mismatch)


def _load_calib(calib, model, digest: str) -> CalibrationProfile:
    """The profile at `calib`, which must come from `model` (whose model_digest
    is `digest`) when it names one."""
    profile = CalibrationProfile.load(_require(calib, "calibrate"))
    _check_provenance(profile.model_digest, digest, f"{calib} was calibrated on another model than {model}")
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
    id and shape, the per-image predictions), then the logits as float32 LE.
    synth's digests name the model, the images and the labels it wrote."""
    header = json.dumps({**digests, "node": ref.node, "shape": list(ref.logits.shape),
                         "preds": ref.preds}, sort_keys=True).encode()
    Path(path).write_bytes(struct.pack("<I", len(header)) + header + ref.logits.astype("<f4").tobytes())


def load_reference(path, digests: dict[str, str], count: int, labels=None) -> Reference | None:
    """The reference in `path`; None when there is no such file or its digests
    differ from `digests`. A match must hold finite logits of `count` images,
    and a `labels` file, if given, must have the labels digest it records,
    if it records one."""
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
    if labels is not None:
        _check_provenance(head.get("labels"), _sha256(labels), f"{labels} are not the labels {path} records")
    return ref


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
                   {"model": model_digest(out / "model"), "images": _sha256(out / "eval_images.bin"),
                    "labels": _sha256(out / "labels.json")})
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
    graph = lower_to_stage(graph, args.ir_stage)
    if method == "delta_mixup":
        images = model_io.load_images(_require(args.images, "synth"))
        sens, samples = generate_sensitivity_list(
            graph, calib, images, mixup=args.mixup_weights, diagnostics=bool(args.out_metrics))
        if args.out_metrics:
            save_metrics_csv(samples, args.out_metrics)
    else:
        images = labels = None
        if method == "top1":
            images = model_io.load_images(_require(args.images, "synth"))
            labels = model_io.load_labels(_require(args.labels, "synth"))
            load_reference(reference_path(args.images), {"model": digest, "images": _sha256(args.images)},
                           images.shape[0], args.labels)
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
    _check_provenance(sens.model_digest, digest, f"{args.list} was analyzed on another model than {args.model}")
    calib_sha, list_sha = _sha256(args.calib), _sha256(args.list)
    _check_provenance(sens.calib_digest, calib_sha,
                      f"{args.list} was analyzed with another calibration than {args.calib}")
    staged = lower_to_stage(graph, args.apply_stage)
    listed = set(sens.ids)
    uncovered = [g.anchor for g in discover_fusion_groups(staged) if listed.isdisjoint(g.members)]
    if uncovered:
        raise UnknownNodeInList(
            f"{args.list} names no member of {len(uncovered)} fusion groups of the model "
            f"({', '.join(uncovered)}); was it made for another model?")
    for target in args.target_reduction:
        keep = select_dequant_set(sens, staged, target)
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
            "list_digest": list_sha,
            "calib_digest": calib_sha,
            "model_digest": digest,
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
    meta_path = Path(args.model).parent / "meta.json"
    run = model_io.read_json_object(meta_path, **_RUN) if meta_path.exists() else None
    _check_provenance((run or {}).get("model_digest"), digests["ref_model"],
                      f"{args.model} was quantized from another model than --ref-model {args.ref_model}")
    ref = load_reference(reference_path(args.images), {
        "model": digests["ref_model"], "images": digests["images"]}, images.shape[0], args.labels)
    if ref is None:
        ref = reference_pass(model_io.load_model(args.ref_model), images)
    report = evaluate_model(qg, ref, images, labels)
    report["digests"] = digests
    if run is not None:
        report["run"] = run
    _write_json(report, args.out)
    print(f"evaluate: accuracy {report['accuracy']:.4f}, "
          f"logit SQNR {report['final_logit_sqnr_db']:.2f} dB, "
          f"{report['qdq_count']} Q-DQ -> {args.out}")
    return 0


def evaluate_model(qg: Graph, ref: Reference, images: np.ndarray, labels,
                   executor: Executor | None = None) -> dict:
    """Accuracy of both models and the quantized model's logit SQNR, from the
    FP32 reference outputs and one pass of `qg` per image; a label count that
    differs from the reference's image count fails before the pass."""
    labels = list(labels)
    ref_accuracy = top1_accuracy(ref.preds, labels)
    got = reference_pass(qg, images, executor)
    return {
        "accuracy": top1_accuracy(got.preds, labels),
        "ref_accuracy": ref_accuracy,
        "final_logit_sqnr_db": mean_logit_sqnr(ref.logits, got.logits),
        "qdq_count": count_qdq(qg),
        "bops": asdict(bops(qg, precision_config(qg))),
    }


def cmd_report(args) -> int:
    """One row per run; the runs must share one FP32 model and may not repeat
    a (method, target) pair."""
    rows, models, pairs = [], set(), set()
    for path in args.runs:
        doc = model_io.read_json_object(_require(path, "evaluate"), bops=dict, digests=dict | None,
                                        run=dict | None, accuracy=_NUMBER, final_logit_sqnr_db=_NUMBER,
                                        qdq_count=int)
        model_io._json_members(doc["bops"], path, normalized_reduction_pct=_NUMBER,
                               literal_reduction_pct=_NUMBER)
        run = model_io._json_members(doc.get("run") or {}, path, **_RUN)
        digests = model_io._json_members(doc.get("digests") or {}, path, ref_model=str | None)
        models.add(digests.get("ref_model"))
        if len(models - {None}) > 1:
            raise ProvenanceMismatch(f"{path} was evaluated against another FP32 model than "
                                     f"the runs before it")
        pair = (run.get("method"), run.get("target_reduction_pct"))
        if run and pair in pairs:
            raise ProvenanceMismatch(f"{path} repeats method {pair[0]} at target {pair[1]}")
        pairs.add(pair)
        rows.append({
            "method": run.get("method") or "unknown",
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
    names = [f"{v:g}" for v in values]
    if len(set(names)) < len(names):  # each target writes q<T>, so a repeat overwrites
        raise argparse.ArgumentTypeError(f"each reduction may appear once, got {text!r}")
    return values


def _weight_pair(text: str) -> tuple[float, float]:
    values = tuple(float(x) for x in text.split(","))
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated weights, got {text!r}")
    if not all(0.0 <= v < float("inf") for v in values):
        raise argparse.ArgumentTypeError(f"weights must be finite and >= 0, got {text!r}")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; `main` runs the
    `cmd_<command>` bound in this module at call time."""
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

    p = sub.add_parser("calibrate", help="profile activation ranges")
    p.add_argument("--model", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--out", required=True)

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

    p = sub.add_parser("quantize", help="apply mixed precision at target reductions")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--list", required=True, help="sensitivity list file")
    p.add_argument("--target-reduction", type=_percent_list, required=True,
                   metavar="PCT[,PCT...]")
    p.add_argument("--apply-stage", default="fused", choices=STAGES)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("evaluate", help="accuracy / logit SQNR / Q-DQ / BOPs of a model")
    p.add_argument("--model", required=True, help="quantized model directory")
    p.add_argument("--ref-model", required=True, help="FP32 reference model directory")
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="aggregate evaluate outputs into a recovery curve")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    return parser


def _usage_error(args) -> str | None:
    """A flag the chosen command needs that argparse cannot require alone."""
    if args.command == "analyze":
        if args.method in ("delta-mixup", "top1") and not args.images:
            return f"--images is required for --method {args.method}"
        if args.method == "top1" and not args.labels:
            return "--labels is required for --method top1"
        if args.out_metrics and args.method != "delta-mixup":
            return "--out-metrics needs --method delta-mixup, the only method that computes metrics"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _usage_error(args)
    if problem:
        parser.error(problem)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except (MixQuantError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
