"""Smoke test of tools/passes_ab.py, the in-process pass timing A/B, run on
this checkout against itself."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_checkout_against_itself():
    done = subprocess.run([sys.executable, str(REPO / "tools" / "passes_ab.py"), str(REPO), str(REPO)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[:2] == ["arch", "operation"]
    got = [row.split() for row in rows]
    ops = ("run_quantized", "run_q40", "reference_pass", "load_and_score", "calibrate", "analyze", "top1",
           "quantize")
    assert [(r[0], r[1]) for r in got] == [(arch, op) for arch in ("mininet", "mini_resnet", "mini_mobilenet")
                                           for op in ops]
    for r in got:
        a_ms, b_ms, ratio = float(r[2]), float(r[3]), float(r[4])
        assert a_ms > 0 and b_ms > 0 and ratio > 0

