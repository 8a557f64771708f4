"""Smoke test: demos 01-06 run to completion. Demo 07 writes next to itself
and is covered by the acceptance sweep."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-6]_*.py"))


def test_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
