"""Local quantization-quality metrics and the per-layer SQNR delta.

SQNR is 10*log10(signal power / noise power) in dB, where signal power is the
mean square of the reference and noise power the mean square of the
reference-minus-test difference. MSE is the plain mean squared difference.
Exact-zero power uses +/-200 dB sentinels instead of IEEE infinities so
sorting stays total and values survive JSON round-trips.

The SQNR delta normalizes the difference to the previous layer's SQNR by the
layer-index gap, turning absolute noise (which accumulates through the net)
into a relative per-layer sensitivity signal.
"""

from __future__ import annotations

import numpy as np

from .errors import NonMonotonicIndices, ShapeMismatch
from .ir import Tensor

SENTINEL_DB = 200.0


def _pair(reference, test) -> tuple[np.ndarray, np.ndarray]:
    a = reference.data if isinstance(reference, Tensor) else np.asarray(reference)
    b = test.data if isinstance(test, Tensor) else np.asarray(test)
    if a.shape != b.shape:
        raise ShapeMismatch(f"metric operands {a.shape} vs {b.shape}")
    return a, b


def _pair64(reference, test) -> tuple[np.ndarray, np.ndarray]:
    a, b = _pair(reference, test)
    return a.astype(np.float64).ravel(), b.astype(np.float64).ravel()


def row_powers(reference, test, rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-row signal power mean(ref**2) and noise power mean((ref - test)**2).

    The operands must share a shape. Each is cast to float64 once and read as
    `rows` C-order rows (default: one per index of axis 0, so one per image
    of a batch); each row is reduced as its own raveled array would be, so
    row j of a batch has the bits of the one-image slice j.
    """
    a, b = _pair(reference, test)
    shape = (a.shape[0] if rows is None else rows, -1)
    ref = a.astype(np.float64, order="C").reshape(shape)
    diff = b.astype(np.float64, order="C").reshape(shape)
    np.subtract(ref, diff, out=diff)
    np.square(diff, out=diff)
    np.square(ref, out=ref)
    return ref.mean(axis=1), diff.mean(axis=1)


def sqnr_db(p_signal: float, p_noise: float) -> float:
    """SQNR in dB of one signal and noise power, with the +/-200 dB sentinels."""
    if p_noise == 0.0:
        return SENTINEL_DB
    if p_signal == 0.0:
        return -SENTINEL_DB
    return float(10.0 * np.log10(p_signal / p_noise))


def sqnr(reference, test) -> float:
    """Signal-to-quantization-noise ratio in dB; higher means less noise."""
    (p_signal,), (p_noise,) = row_powers(reference, test, rows=1)
    return sqnr_db(float(p_signal), float(p_noise))


def mse(reference, test) -> float:
    return float(row_powers(reference, test, rows=1)[1][0])


def cosine_similarity(a, b) -> float:
    """Flattened cosine of the angle between two tensors; zero norm yields 0."""
    va, vb = _pair64(a, b)
    na, nb = float(np.linalg.norm(va)), float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(va, vb) / (na * nb))


def kl_from_histograms(p, q, eps: float = 1e-10) -> float:
    """KL divergence (nats) between two pre-binned distributions.

    Both are normalized to unit mass and epsilon-smoothed, so empty-bin
    overlap never produces infinities and the result stays >= 0.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ShapeMismatch(f"histogram shapes {p.shape} vs {q.shape}")
    p = p / p.sum() + eps
    q = q / q.sum() + eps
    return float(np.sum(p * np.log(p / q)))


def kl_divergence(reference, test, bins: int = 256, eps: float = 1e-10) -> float:
    """KL divergence between value histograms of two tensors.

    The reference tensor's range defines the shared bin edges; test values are
    clipped into it so both histograms carry full mass.
    """
    ref, tst = _pair64(reference, test)
    lo, hi = float(ref.min()), float(ref.max())
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    hist_ref, _ = np.histogram(ref, bins=bins, range=(lo, hi))
    hist_tst, _ = np.histogram(np.clip(tst, lo, hi), bins=bins, range=(lo, hi))
    return kl_from_histograms(hist_ref, hist_tst, eps)


def sqnr_delta(sqnr_by_layer) -> list[float]:
    """Per-layer SQNR change normalized by layer-index gap.

    Input is an ordered list of (layer_index, sqnr_db) with strictly increasing
    indices. The first layer has no predecessor and gets delta 0, which sorts
    neutrally.
    """
    pairs = list(sqnr_by_layer)
    deltas: list[float] = []
    for i, (idx, value) in enumerate(pairs):
        if i == 0:
            deltas.append(0.0)
            continue
        prev_idx, prev_value = pairs[i - 1]
        if not idx > prev_idx:
            raise NonMonotonicIndices(f"layer indices must increase: {prev_idx} then {idx}")
        deltas.append((value - prev_value) / (idx - prev_idx))
    return deltas
