"""Output checks for one pipeline round, computed apart from mixquant.

Every check reads the artifacts on disk (manifests, sensitivity lists,
precision tables, evaluate reports) with this module's own parsing and
arithmetic, and imports nothing from mixquant: a fault in the program's
shape inference, fusion grouping or BOPs accounting cannot hide itself.
Each check raises CheckFailed with a message naming the artifact.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

# The kinds the method may give int8 precision, and the conv kinds that anchor
# a fusion chain conv[+BatchNorm][+Add][+ReLU] sharing one precision.
QUANTIZABLE = frozenset({"Conv2d", "DepthwiseConv2d", "BatchNorm", "ReLU", "Add",
                         "MaxPool", "AvgPool", "GlobalAvgPool", "Gemm"})
CONV = frozenset({"Conv2d", "DepthwiseConv2d"})
CHAIN = ("BatchNorm", "Add", "ReLU")
NO_MAC = frozenset({"Quantize", "Dequantize", "Flatten", "Input", "Output"})


class CheckFailed(Exception):
    """An artifact contradicts what the method must produce."""


def read_manifest(model_dir) -> dict:
    return json.loads((Path(model_dir) / "manifest.json").read_text())


def quantizable_ids(manifest: dict) -> list[str]:
    return [n["id"] for n in manifest["nodes"] if n["kind"] in QUANTIZABLE]


def fusion_groups(manifest: dict) -> list[list[str]]:
    """Partition the quantizable nodes into conv-anchored chains (each link the
    sole consumer of the previous one) plus singletons."""
    nodes = manifest["nodes"]
    consumers = defaultdict(list)
    for n in nodes:
        for src in n["inputs"]:
            consumers[src].append(n)
    taken: set[str] = set()
    groups = []
    for n in nodes:
        if n["kind"] not in CONV or n["id"] in taken:
            continue
        members, tail = [n["id"]], n["id"]
        for kind in CHAIN:
            nxt = consumers[tail]
            if len(nxt) == 1 and nxt[0]["kind"] == kind and nxt[0]["id"] not in taken:
                members.append(nxt[0]["id"])
                tail = nxt[0]["id"]
        taken.update(members)
        groups.append(members)
    groups += [[nid] for nid in quantizable_ids(manifest) if nid not in taken]
    return groups


def _pair(v) -> tuple[int, int]:
    return (int(v[0]), int(v[1])) if isinstance(v, list) else (int(v), int(v))


def _weight_shape(manifest: dict, node: dict) -> list[int]:
    return manifest["blobs"][node["weights"]["weight"]["blob"]]["shape"]


def macs(manifest: dict) -> dict[str, int]:
    """Batch-1 multiply-accumulates per node: conv output elements x taps x
    input channels, gemm outputs x K, other compute kinds one per output
    element, data movement and Q-DQ none."""
    shapes: dict[str, tuple[int, ...]] = {}
    out: dict[str, int] = {}
    for n in manifest["nodes"]:
        kind = n["kind"]
        src = shapes[n["inputs"][0]] if n["inputs"] else ()
        if kind == "Input":
            shape = tuple(int(d) for d in n["attrs"]["shape"])
        elif kind in CONV or kind in ("MaxPool", "AvgPool"):
            c, h, w = src
            if kind in CONV:
                wshape = _weight_shape(manifest, n)
                k = (wshape[2], wshape[3])
                s = _pair(n["attrs"].get("stride", 1))
                c = wshape[0]
            else:
                k = _pair(n["attrs"]["kernel"])
                s = _pair(n["attrs"].get("stride") or n["attrs"]["kernel"])
            p = _pair(n["attrs"].get("padding", 0))
            shape = (c, (h + 2 * p[0] - k[0]) // s[0] + 1, (w + 2 * p[1] - k[1]) // s[1] + 1)
        elif kind == "GlobalAvgPool":
            shape = (src[0],)
        elif kind == "Flatten":
            shape = (math.prod(src),)
        elif kind == "Gemm":
            shape = (_weight_shape(manifest, n)[0],)
        else:
            shape = src
        shapes[n["id"]] = shape
        elems = math.prod(shape)
        if kind in NO_MAC:
            out[n["id"]] = 0
        elif kind == "Conv2d":
            _, ci, kh, kw = _weight_shape(manifest, n)
            out[n["id"]] = elems * ci * kh * kw
        elif kind == "DepthwiseConv2d":
            _, _, kh, kw = _weight_shape(manifest, n)
            out[n["id"]] = elems * kh * kw
        elif kind == "Gemm":
            out[n["id"]] = elems * _weight_shape(manifest, n)[1]
        else:
            out[n["id"]] = elems
    return out


def check_ref_accuracy(report: dict, where: str) -> None:
    # teacher labels are the FP32 argmax, so the FP32 model scores exactly 1
    if report["ref_accuracy"] != 1.0:
        raise CheckFailed(f"{where}: FP32 ref_accuracy {report['ref_accuracy']} != 1.0")


def check_sensitivity_list(ids: list[str], manifest: dict, where: str) -> None:
    """The list orders every quantizable node once, fusion groups contiguous."""
    want = quantizable_ids(manifest)
    if sorted(ids) != sorted(want):
        raise CheckFailed(f"{where}: list is not a permutation of the {len(want)} "
                          f"quantizable nodes (missing {sorted(set(want) - set(ids))}, "
                          f"extra {sorted(set(ids) - set(want))}, {len(ids)} entries)")
    pos = {nid: i for i, nid in enumerate(ids)}
    for group in fusion_groups(manifest):
        at = sorted(pos[m] for m in group)
        if at[-1] - at[0] != len(group) - 1:
            raise CheckFailed(f"{where}: fusion group {group} is split across positions {at}")


def bops_config(manifest: dict, layers: dict[str, int]) -> tuple[int, float]:
    """(BOPs of the configuration, normalized reduction %) by MAC x bits;
    non-quantizable nodes stay at 32 bits in every configuration."""
    fp32 = int8 = config = 0
    table = macs(manifest)
    for n in manifest["nodes"]:
        m = table[n["id"]]
        quantizable = n["kind"] in QUANTIZABLE
        fp32 += 32 * m
        int8 += (8 if quantizable else 32) * m
        config += (layers[n["id"]] if quantizable else 32) * m
    return config, 100.0 * (fp32 - config) / (fp32 - int8)


def check_bops(report: dict, manifest: dict, precision: dict, target: float, where: str) -> None:
    """The report's BOPs block equals MAC x bits from the manifest and
    precision.json, and the achieved reduction does not exceed the target."""
    layers = {k: int(v) for k, v in precision["layers"].items()}
    declared = {n["id"]: n["precision"] for n in manifest["nodes"] if n["kind"] in QUANTIZABLE}
    if layers != declared:
        raise CheckFailed(f"{where}: precision.json disagrees with the manifest's node precisions")
    config, normalized = bops_config(manifest, layers)
    got = report["bops"]
    if got["bops_config"] != config:
        raise CheckFailed(f"{where}: bops_config {got['bops_config']} != MAC x bits {config}")
    if not math.isclose(got["normalized_reduction_pct"], normalized, rel_tol=1e-12, abs_tol=1e-9):
        raise CheckFailed(f"{where}: normalized reduction {got['normalized_reduction_pct']} "
                          f"!= {normalized} from MAC x bits")
    if normalized > target + 1e-9:
        raise CheckFailed(f"{where}: achieved reduction {normalized:.4f}% exceeds the target {target}%")


def check_qdq(report: dict, manifest: dict, where: str) -> None:
    count = sum(1 for n in manifest["nodes"] if n["kind"] in ("Quantize", "Dequantize"))
    if report["qdq_count"] != count:
        raise CheckFailed(f"{where}: qdq_count {report['qdq_count']} != {count} Q-DQ nodes in the manifest")


def check_pathology(per_model: list[dict[str, dict[int, float]]], heads: list[str],
                    heavy_layer: str) -> None:
    """The local metrics find the heavy-tailed layer: it heads the delta-mixup
    list on every model of the run but at most one, and, averaged over the
    run's models, delta-mixup's final-logit SQNR is at least in-order's at
    every target, since keeping that layer at FP32 recovers more than keeping
    the first layers."""
    misses = [h for h in heads if h != heavy_layer]
    if len(misses) > 1:
        raise CheckFailed(f"delta-mixup list starts with {misses} instead of {heavy_layer} "
                          f"on {len(misses)} of {len(heads)} models")
    for target in per_model[0]["delta-mixup"]:
        mean = {m: sum(d[m][target] for d in per_model) / len(per_model)
                for m in ("delta-mixup", "in-order")}
        if mean["delta-mixup"] < mean["in-order"]:
            raise CheckFailed(f"mean delta-mixup logit SQNR {mean['delta-mixup']:.3f} dB < in-order "
                              f"{mean['in-order']:.3f} dB at target {target}% over "
                              f"{len(per_model)} models")


def check_passes(passes: int, expected: int, what: str) -> None:
    if passes != expected:
        raise CheckFailed(f"{what}: {passes} image-passes, expected {expected}")
