"""Smoke test: every demo runs to completion in a scratch working directory,
where demo 07 writes its recovery curve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-9]_*.py"))


def test_seven_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    if demo.startswith("07_"):
        assert (tmp_path / "recovery_curve.csv").is_file()
