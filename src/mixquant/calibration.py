"""Activation profiling and derivation of quantization parameters.

Activations are profiled into per-node histograms over a calibration image
set (one FP32 pass per image). Histogram ranges are symmetric powers of two
and grow by exact bin-pair coalescing, so partial profiles from concurrent
workers merge associatively with no resolution loss beyond the shared grid.

Weights are quantized symmetrically per tensor: step = max|W| / 127 for
8 bits, zero_point 0. Activations are asymmetric affine with the range
extended through zero so that real zero is always exactly representable and
the zero_point stays inside [-128, 127].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyCalibrationSet, EmptyProfile, MissingCalibration, NonFiniteValue
from .ir import Graph, QuantParams, Tensor, round_half_away

DEFAULT_BINS = 2048


class HistogramProfile:
    """Streaming histogram with exact min/max over a symmetric [-R, R] range.

    R is always a power of two. When data exceeds R the range doubles and
    old bins coalesce pairwise into the middle half of the new grid, which
    is exact: merging profiles in any order yields identical counts.
    """

    def __init__(self, bins: int = DEFAULT_BINS):
        if bins % 4 != 0:
            raise ValueError("bin count must be divisible by 4 for exact range doubling")
        self.bins = bins
        self.counts = np.zeros(bins, dtype=np.int64)
        self.min = math.inf
        self.max = -math.inf
        self.total = 0
        self.hist_range = 0.0  # 0 until first data arrives

    def _grow_to(self, target: float) -> None:
        if self.hist_range == 0.0:
            exp = 0 if target <= 0 else max(0, math.ceil(math.log2(target)))
            self.hist_range = float(2.0 ** exp)
            return
        while self.hist_range < target:
            half = self.bins // 2
            quarter = self.bins // 4
            new = np.zeros(self.bins, dtype=np.int64)
            new[quarter:quarter + half] = self.counts[0::2] + self.counts[1::2]
            self.counts = new
            self.hist_range *= 2.0

    def update(self, values) -> None:
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            return
        lo, hi = float(v.min()), float(v.max())  # NaN propagates into both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise NonFiniteValue(f"histogram update holds non-finite values (min {lo}, max {hi})")
        self.min = min(self.min, lo)
        self.max = max(self.max, hi)
        self.total += v.size
        self._grow_to(max(-lo, hi))
        width = 2.0 * self.hist_range / self.bins
        idx = np.clip(((v + self.hist_range) / width).astype(np.int64), 0, self.bins - 1)
        self.counts += np.bincount(idx, minlength=self.bins)

    def merge(self, other: "HistogramProfile") -> "HistogramProfile":
        """Combine two profiles; exact and order-independent."""
        if self.bins != other.bins:
            raise ValueError("cannot merge profiles with different bin counts")
        out = HistogramProfile(self.bins)
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        out.total = self.total + other.total
        r = max(self.hist_range, other.hist_range)
        for src in (self, other):
            tmp = HistogramProfile(self.bins)
            tmp.counts = src.counts.copy()
            tmp.hist_range = src.hist_range
            if tmp.hist_range > 0:
                tmp._grow_to(r)
            out.counts += tmp.counts
        out.hist_range = r if out.total else 0.0
        return out

    def percentile_range(self, p: float) -> tuple[float, float]:
        """Smallest bin-aligned range holding the central [p, 1-p] mass."""
        if self.total == 0:
            raise EmptyProfile("histogram holds no samples")
        width = 2.0 * self.hist_range / self.bins
        edges = -self.hist_range + width * np.arange(self.bins + 1)
        cum = np.cumsum(self.counts)
        lo_idx = int(np.searchsorted(cum, p * self.total, side="left"))
        hi_idx = int(np.searchsorted(cum, (1.0 - p) * self.total, side="left"))
        lo = max(self.min, float(edges[min(lo_idx, self.bins)]))
        hi = min(self.max, float(edges[min(hi_idx + 1, self.bins)]))
        if not lo < hi:
            return self.min, self.max
        return lo, hi

    def to_json(self) -> dict:
        return {
            "min": self.min if self.total else None,
            "max": self.max if self.total else None,
            "total": int(self.total),
            "hist_range": self.hist_range,
            "bins": self.counts.tolist(),
        }

    @classmethod
    def from_json(cls, d: dict) -> "HistogramProfile":
        h = cls(len(d["bins"]))
        h.counts = np.asarray(d["bins"], dtype=np.int64)
        h.total = int(d["total"])
        h.hist_range = float(d["hist_range"])
        h.min = math.inf if d["min"] is None else float(d["min"])
        h.max = -math.inf if d["max"] is None else float(d["max"])
        return h


@dataclass
class CalibrationProfile:
    """Per-node activation histograms for one graph, plus the Input tensor's,
    and the sha256 digest of the model they were profiled on ("" if unknown)."""

    profiles: dict[str, HistogramProfile] = field(default_factory=dict)
    image_count: int = 0
    bins: int = DEFAULT_BINS
    model_digest: str = ""

    def for_node(self, node_id: str) -> HistogramProfile:
        if node_id not in self.profiles:
            raise MissingCalibration(f"no calibration profile for node {node_id!r}")
        return self.profiles[node_id]

    def covers(self, graph: Graph) -> bool:
        return all(n.id in self.profiles for n in graph.nodes if n.kind not in ("Input", "Output")) \
            and graph.input_node.id in self.profiles

    def save(self, path) -> None:
        """Compact sorted-key JSON, with the `model` key only when the digest is
        known; `nodes` sorts after every header key and is written node by node,
        so the whole text is never held at once."""
        head = {"image_count": self.image_count, "bin_count": self.bins}
        if self.model_digest:
            head["model"] = self.model_digest
        with open(path, "w") as fh:
            fh.write(json.dumps(head, sort_keys=True, separators=(",", ":"))[:-1] + ',"nodes":{')
            for i, (nid, p) in enumerate(sorted(self.profiles.items())):
                fh.write(("," if i else "") + json.dumps(nid) + ":"
                         + json.dumps(p.to_json(), sort_keys=True, separators=(",", ":")))
            fh.write("}}")

    @classmethod
    def load(cls, path) -> "CalibrationProfile":
        doc = json.loads(Path(path).read_text())
        prof = cls(image_count=int(doc["image_count"]), bins=int(doc["bin_count"]),
                   model_digest=str(doc.get("model", "")))
        prof.profiles = {nid: HistogramProfile.from_json(d) for nid, d in doc["nodes"].items()}
        return prof


def profile_activations(graph: Graph, images: np.ndarray, bins: int = DEFAULT_BINS,
                        executor=None) -> CalibrationProfile:
    """Run every calibration image through the FP32 graph and histogram each
    node's output. The Input node is profiled from the raw images so the first
    quantized layer has an input scale. Histograms take one image at a time,
    in image order, so the profile does not depend on the batch size."""
    from .executor import Executor, image_batches  # deferred: executor depends on quantizer/calibration

    if images.ndim != 4 or images.shape[0] < 1:
        raise EmptyCalibrationSet("calibration needs at least one (C, H, W) image")
    ex = executor or Executor()
    input_id = graph.input_node.id
    nodes = [n.id for n in graph.nodes if n.kind not in ("Input", "Output")]
    prof = CalibrationProfile({nid: HistogramProfile(bins) for nid in [input_id, *nodes]},
                              image_count=images.shape[0], bins=bins)
    for batch in image_batches(images, (graph, nodes)):
        _, trace = ex.run_fp32(graph, batch, capture=nodes)
        for j in range(batch.shape[0]):
            prof.profiles[input_id].update(batch.data[j])
            for nid in nodes:
                prof.profiles[nid].update(trace.outputs[nid].data[j])
    return prof


def activation_qparams(profile: HistogramProfile, bits: int = 8, mode: str = "minmax",
                       p: float = 0.001) -> QuantParams:
    """Asymmetric affine params from a profiled range.

    minmax uses the exact observed [min, max]; percentile clips the range to
    the central [p, 1-p] histogram mass first. The range is then extended
    through zero, step = (max-min)/(2^bits - 1), and zero_point is chosen so
    min maps to the bottom of the int8 range and zero is exact. A constant
    range thus spans [0, value]; only an all-zero range falls back to step 1,
    zero_point 0.
    """
    if profile.total == 0:
        raise EmptyProfile("cannot derive qparams from an empty profile")
    if mode == "minmax":
        lo, hi = profile.min, profile.max
    elif mode == "percentile":
        lo, hi = profile.percentile_range(p)
    else:
        raise ValueError(f"unknown calibration mode {mode!r}")
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    if hi == lo:
        return QuantParams(bits, 1.0, 0, symmetric=False)
    levels = 2 ** bits - 1
    step = (hi - lo) / levels
    qmin, qmax = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    zero_point = int(qmin + round_half_away(-lo / step))
    zero_point = max(qmin, min(qmax, zero_point))
    return QuantParams(bits, step, zero_point, symmetric=False)


def weight_qparams(weights, bits: int = 8) -> QuantParams:
    """Symmetric per-tensor params: step = max|W| / (2^(b-1) - 1), zero_point 0.

    All-zero weights fall back to step 1 so the step stays positive.
    """
    data = weights.data if isinstance(weights, Tensor) else np.asarray(weights)
    amax = float(np.abs(data).max()) if data.size else 0.0
    step = amax / (2 ** (bits - 1) - 1) if amax > 0 else 1.0
    return QuantParams(bits, step, 0, symmetric=True)
