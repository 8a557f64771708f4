"""Smoke test of tools/rounds_ab.py, the in-process A/B of whole pipeline
rounds, run on this checkout against itself."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_checkout_against_itself():
    done = subprocess.run([sys.executable, str(REPO / "tools" / "rounds_ab.py"), str(REPO), str(REPO),
                           "mobilenet_sweep", "--rounds", "2"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[:3] == ["row", "A", "B"]
    got = [row.split() for row in rows]
    assert [r[0] for r in got] == ["setup_s", "compile_s", "evaluate_s", "infer_ms", "synth", "calibrate",
                                   "analyze", "quantize", "evaluate", "report"]
    for r in got:
        a, b, ratio = float(r[1]), float(r[2]), float(r[3])
        assert a > 0 and b > 0 and ratio > 0
