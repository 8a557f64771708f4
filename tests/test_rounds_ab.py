"""Smoke test of tools/rounds_ab.py, the in-process A/B of whole pipeline
rounds, run on this checkout against itself, and checks that each side runs
the benchmark's own round on its own package."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

REPO = Path(__file__).resolve().parents[1]


def load(name, path):
    """The module at `path`, imported as `name` with its directory's modules
    importable; sys.path and the environment are left as they were."""
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [str(path.parent), *sys.path]):
        spec = importlib.util.spec_from_file_location(name, path)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_sides_bind_their_own_package(tmp_path):
    rounds_ab = load("rounds_ab_tool", REPO / "tools" / "rounds_ab.py")
    bench = load("bench_pipeline", REPO / "bench" / "pipeline.py")
    with mock.patch.dict(sys.modules):
        names = ("mixquant", "mixquant.cli", "checks", "probe", "pipeline_a", "pipeline_b")
        before = {name: sys.modules.get(name) for name in names}
        sides = rounds_ab.load_side(REPO, "a"), rounds_ab.load_side(REPO, "b")
        assert {name: sys.modules.get(name) for name in names} == before
    for side, pipeline in zip("ab", sides):
        assert pipeline.cli.__name__ == f"mixquant_{side}.cli"
        assert {name: vars(pipeline.Runner(name, tmp_path).wl) for name in bench.WORKLOADS} == \
            {name: vars(w) for name, w in bench.WORKLOADS.items()}


def test_failing_side_names_itself(monkeypatch):
    rounds_ab = load("rounds_ab_tool", REPO / "tools" / "rounds_ab.py")
    with mock.patch.dict(sys.modules):  # the sides' packages stay loaded while they run
        a, b = rounds_ab.load_side(REPO, "a"), rounds_ab.load_side(REPO, "b")

        def wrong(self, rnd):
            raise b.checks.CheckFailed("report40.json: wrong")

        monkeypatch.setattr(b.Runner, "check", wrong)
        with pytest.raises(SystemExit) as exited:
            rounds_ab.compare((a, b), "mobilenet_sweep", 2, 7)
    assert exited.value.code == "side B, round 0 (seed 7): report40.json: wrong"


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
