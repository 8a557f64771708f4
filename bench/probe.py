"""A fixed reference computation that measures the host's current speed.

On a shared host the speed available to one process drifts by up to 2x over
tens of seconds, as other tenants load the same cores, caches and memory; a
30-second run then lands wholly in a fast or a slow stretch. The probe runs
the same mix of work as the mixquant interpreter (np.pad, strided copies into
an im2col buffer, a small float32 matmul, a Python loop over a dict) and
uses no mixquant code, so a change to the program cannot change it. The
pipeline runs it between commands; each round's times are scaled by
PROBE_S / median(probe times in the round), which states them at the speed
at which one probe takes PROBE_S.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's median time on the reference host (2-vCPU Xeon, 1 BLAS thread).
PROBE_S = 0.003

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((1, 16, 16, 16)).astype(np.float32)
_W = _rng.standard_normal((16, 144)).astype(np.float32)


def probe() -> float:
    """Seconds one reference computation takes now."""
    start = time.perf_counter()
    for _ in range(25):
        xp = np.pad(_X, ((0, 0), (0, 0), (1, 1), (1, 1)))
        cols = np.empty((1, 16, 3, 3, 16, 16), np.float32)
        for i in range(3):
            for j in range(3):
                cols[:, :, i, j] = xp[:, :, i:i + 16, j:j + 16]
        np.maximum(_W @ cols.reshape(144, 256), 0).sum()
        sum({k: 2 * k for k in range(50)}.values())
    return time.perf_counter() - start
