"""Smoke test of tools/rounds_ab.py, the in-process A/B of whole pipeline
rounds, run on this checkout against itself, and a check that its copy of
the benchmark's workload table still matches bench/pipeline.py."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

REPO = Path(__file__).resolve().parents[1]


def load(name, path):
    """The module at `path`, imported as `name` with its directory's modules
    importable; sys.path and the environment are left as they were."""
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [str(path.parent), *sys.path]):
        spec = importlib.util.spec_from_file_location(name, path)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_workload_table_matches_the_benchmark():
    rounds_ab = load("rounds_ab_tool", REPO / "tools" / "rounds_ab.py")
    bench = load("bench_pipeline", REPO / "bench" / "pipeline.py")
    assert rounds_ab.WORKLOADS == {name: (w.arch, w.methods, w.synth_flags)
                                   for name, w in bench.WORKLOADS.items()}
    assert rounds_ab.TARGETS == bench.TARGETS
    # one count serves as calibration, eval and top1 images
    assert rounds_ab.IMAGES == bench.CALIB_COUNT == bench.EVAL_COUNT == bench.TOP1_IMAGES
    assert rounds_ab.LATENCY_REPEATS == bench.LATENCY_REPEATS


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
