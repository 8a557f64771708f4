"""Activation profiling and derivation of quantization parameters.

Activations are profiled into one exact range record per node, the Input's
included: its min, max and element count over a calibration image set. One
FP32 pass per image observes every node but the Output and folds each value
into its record as the step makes it, holding nothing. Min and max do not
depend on the order in which values arrive, so neither does the record.

Weights are quantized symmetrically per tensor: step = max|W| / 127,
zero_point 0. Activations are asymmetric affine with the range
extended through zero so that real zero is always exactly representable and
the zero_point stays inside [-128, 127].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CorruptBlob, EmptyCalibrationSet, EmptyProfile, MissingCalibration, NonFiniteValue
from .ir import Graph, QuantParams, Tensor, round_half_away
from .model_io import _json_members, read_json_object


class RangeProfile:
    """Exact running min, max and element count of one node's activations."""

    def __init__(self):
        self.min = math.inf
        self.max = -math.inf
        self.total = 0

    def update(self, values) -> None:
        """Fold in any array, float32 or float64; min and max of float32 data
        are exact as Python floats, so no float64 copy is made."""
        v = np.asarray(values)
        if v.size == 0:
            return
        lo, hi = float(v.min()), float(v.max())  # NaN propagates into both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise NonFiniteValue(f"activation range update holds non-finite values (min {lo}, max {hi})")
        self.min = min(self.min, lo)
        self.max = max(self.max, hi)
        self.total += v.size

    def to_json(self) -> dict:
        return {
            "min": self.min if self.total else None,
            "max": self.max if self.total else None,
            "total": int(self.total),
        }

    @classmethod
    def from_json(cls, d: dict) -> "RangeProfile":
        """The record `to_json` writes; CorruptBlob for members of other JSON
        types (a count that is no int), ValueError for a negative count, or for
        values counted without a finite min <= max."""
        _json_members(d, "range record", min=int | float | None, max=int | float | None, total=int)
        r = cls()
        r.total = d["total"]
        r.min = math.inf if d.get("min") is None else float(d["min"])
        r.max = -math.inf if d.get("max") is None else float(d["max"])
        if r.total < 0 or r.total and not -math.inf < r.min <= r.max < math.inf:
            raise ValueError(f"min {r.min}, max {r.max} and total {r.total} are not a range")
        return r


# Older name of RangeProfile, which bench/tracer.py still looks up; it goes
# with the next change to the benchmark.
HistogramProfile = RangeProfile


@dataclass
class CalibrationProfile:
    """Per-node activation ranges for one graph, plus the Input tensor's, and
    the sha256 digest of the model they were profiled on ("" if unknown)."""

    profiles: dict[str, RangeProfile] = field(default_factory=dict)
    image_count: int = 0
    model_digest: str = ""

    def for_node(self, node_id: str) -> RangeProfile:
        if node_id not in self.profiles:
            raise MissingCalibration(f"no calibration profile for node {node_id!r}")
        return self.profiles[node_id]

    def save(self, path) -> None:
        """Compact sorted-key JSON, with the `model` key only when the digest is
        known."""
        doc = {"image_count": self.image_count,
               "nodes": {nid: p.to_json() for nid, p in self.profiles.items()}}
        if self.model_digest:
            doc["model"] = self.model_digest
        Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))

    @classmethod
    def load(cls, path) -> "CalibrationProfile":
        """Each node's `min`, `max` and `total`; other keys, such as the bins of
        a calib.json written with histograms, are ignored."""
        doc = read_json_object(path, nodes=dict, image_count=int)
        prof = cls(image_count=doc["image_count"], model_digest=str(doc.get("model", "")))
        for nid, d in doc["nodes"].items():
            try:
                prof.profiles[nid] = RangeProfile.from_json(d)
            except (CorruptBlob, ValueError) as exc:
                raise MissingCalibration(f"{path}: node {nid!r}: {exc}") from None
        return prof


def profile_activations(graph: Graph, images: np.ndarray, executor=None) -> CalibrationProfile:
    """Run every calibration image through the FP32 graph and record each
    node's output range, the Input's (the raw images) included, so the first
    quantized layer has an input scale. One FP32 pass per batch folds each
    value but the Output's into its range as the step makes it, so the pass
    holds nothing beyond its own values and is sized as a pass that keeps
    none. Each range takes one update per batch; min and max are exact in any
    order, so the profile does not depend on the batch size."""
    from .executor import Executor, batch_size, image_batches  # deferred: executor depends on quantizer/calibration

    if images.ndim != 4 or images.shape[0] < 1:
        raise EmptyCalibrationSet("calibration needs at least one (C, H, W) image")
    ex = executor or Executor()
    prof = CalibrationProfile({n.id: RangeProfile() for n in graph.nodes if n.kind != "Output"},
                              image_count=images.shape[0])
    observe = {nid: (lambda t, r=r: r.update(t.data)) for nid, r in prof.profiles.items()}
    for batch in image_batches(images, batch_size(graph)):
        ex.run_fp32(graph, batch, observe=observe)
    return prof


def activation_qparams(profile: RangeProfile) -> QuantParams:
    """Asymmetric affine params from the exact observed [min, max].

    The range is extended through zero, step = (max-min)/255, and zero_point
    is chosen so min maps to -128 and zero is exact. A constant range thus
    spans [0, value]; only an all-zero range falls back to step 1,
    zero_point 0.
    """
    if profile.total == 0:
        raise EmptyProfile("cannot derive qparams from an empty profile")
    lo, hi = min(profile.min, 0.0), max(profile.max, 0.0)
    if hi == lo:
        return QuantParams(1.0, 0, symmetric=False)
    step = (hi - lo) / 255
    zero_point = int(-128 + round_half_away(-lo / step))
    zero_point = max(-128, min(127, zero_point))
    return QuantParams(step, zero_point, symmetric=False)


def weight_qparams(weights) -> QuantParams:
    """Symmetric per-tensor params: step = max|W| / 127, zero_point 0.

    All-zero weights fall back to step 1 so the step stays positive.
    """
    data = weights.data if isinstance(weights, Tensor) else np.asarray(weights)
    amax = float(np.abs(data).max()) if data.size else 0.0
    step = amax / 127 if amax > 0 else 1.0
    return QuantParams(step, 0, symmetric=True)
