"""In-process A/B of whole pipeline rounds between two checkouts.

    python tools/rounds_ab.py A B WORKLOAD [--rounds N] [--seed S]

Imports A/src/mixquant and B/src/mixquant into this one process as the
packages `mixquant_a` and `mixquant_b`, as tools/passes_ab.py does. Each of N
rounds runs WORKLOAD's six-command pipeline through each side's `cli.main`,
A then B or B then A (the order alternates by round), both on synth seed
S + r in round r. A round issues the benchmark's commands (bench/pipeline.py;
WORKLOADS below mirrors its table): synth, calibrate, then analyze and
quantize at targets 20, 40, 60, 80 per method, evaluate per quantized model
and one report. After the commands it times batch-1 `run_quantized` over
every pair of quantized model and eval image, the fastest of LATENCY_REPEATS
runs each, as `bench/run.py`'s `infer_ms` samples it.

It prints one line per stage, named as the benchmark's metrics (`setup_s`:
synth; `compile_s`: calibrate, analyze and quantize; `evaluate_s`: evaluate
and report; `infer_ms`: the median batch-1 latency), and one per command, in
seconds summed over the command's calls in a round: A's and B's median over
rounds and the median of the per-round B/A ratios with its quartiles. The work
directory is on /dev/shm where there is one, so disk latency stays out of
the stage times.

Both sides share one process, so the between-process spread of
`bench/run.py` cancels out of the ratios. It says whether a gap between two
trees is the code; a claimed gain still comes from `bench/run.py`.
BLAS runs single-threaded: the variables below are set before numpy loads.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from passes_ab import load_package  # noqa: E402

# name -> (arch, analyze methods, synth flags), as in bench/pipeline.py
WORKLOADS = {
    "mininet_pathology": ("mininet", ("delta-mixup", "in-order"),
                          ("--scale-layer", "fc", "--scale-factor", "50", "--scale-stride", "64")),
    "mobilenet_sweep": ("mini_mobilenet", ("delta-mixup",), ()),
    "resnet_methods": ("mini_resnet", ("delta-mixup", "in-order", "weight-sqnr", "top1"), ()),
}
TARGETS = (20, 40, 60, 80)
IMAGES = 16
LATENCY_REPEATS = 2
COMMANDS = ("synth", "calibrate", "analyze", "quantize", "evaluate", "report")
STAGES = {"setup_s": ("synth",), "compile_s": ("calibrate", "analyze", "quantize"),
          "evaluate_s": ("evaluate", "report"), "infer_ms": ("infer",)}


def pipeline_round(mq, workload: str, seed: int, w: Path) -> dict[str, float]:
    """Seconds per command (summed over its calls) of one round in `w`, and
    `infer`, the median batch-1 latency in ms."""
    arch, methods, flags = WORKLOADS[workload]
    shutil.rmtree(w, ignore_errors=True)
    times = dict.fromkeys(COMMANDS, 0.0)

    def run(*argv) -> None:
        argv = [str(a) for a in argv]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = mq.cli.main(argv)
        times[argv[0]] += time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"`mixquant {' '.join(argv)}` exited {code}")

    run("synth", "--arch", arch, "--seed", seed, "--calib-count", IMAGES, "--eval-count", IMAGES,
        *flags, "--out-dir", w)
    run("calibrate", "--model", w / "model", "--images", w / "calib_images.bin", "--out", w / "calib.json")
    for m in methods:
        (w / m).mkdir()
        run("analyze", "--model", w / "model", "--calib", w / "calib.json",
            "--images", w / ("eval_images.bin" if m == "top1" else "calib_images.bin"),
            "--labels", w / "labels.json", "--method", m, "--top1-images", IMAGES,
            "--out-list", w / m / "sensitivity.txt")
        run("quantize", "--model", w / "model", "--calib", w / "calib.json", "--list", w / m / "sensitivity.txt",
            "--target-reduction", ",".join(map(str, TARGETS)), "--out-dir", w / m)
    reports = []
    for m in methods:
        for t in TARGETS:
            reports.append(w / m / f"report{t}.json")
            run("evaluate", "--model", w / m / f"q{t}" / "model", "--ref-model", w / "model",
                "--images", w / "eval_images.bin", "--labels", w / "labels.json", "--out", reports[-1])
    run("report", "--runs", *reports, "--out", w / "recovery_curve.csv")

    images, ex, samples = mq.load_images(w / "eval_images.bin"), mq.Executor(), []
    for m in methods:
        for t in TARGETS:
            graph = mq.load_model(w / m / f"q{t}" / "model")
            for i in range(images.shape[0]):
                x, best = mq.Tensor.f32(images[i:i + 1]), float("inf")
                for _ in range(LATENCY_REPEATS):
                    start = time.perf_counter()
                    ex.run_quantized(graph, x)
                    best = min(best, time.perf_counter() - start)
                samples.append(best)
    times["infer"] = 1e3 * statistics.median(samples)
    return times


def compare(a, b, workload: str, rounds: int, seed: int) -> list[dict]:
    shm = Path("/dev/shm")
    with tempfile.TemporaryDirectory(dir=shm if shm.is_dir() else None) as tmp:
        per = [[], []]  # per side, one dict of times per round
        for r in range(rounds):
            for s in ((0, 1) if r % 2 == 0 else (1, 0)):
                per[s].append(pipeline_round((a, b)[s], workload, seed + r, Path(tmp) / "ab"[s]))
    rows = []
    for name, keys in [*STAGES.items(), *((c, (c,)) for c in COMMANDS)]:
        ta, tb = ([sum(t[k] for k in keys) for t in side] for side in per)
        q1, med, q3 = statistics.quantiles([y / x for x, y in zip(ta, tb)], n=4, method="inclusive")
        rows.append({"name": name, "a": statistics.median(ta), "b": statistics.median(tb),
                     "ratio": med, "q1": q1, "q3": q3})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout A (the base of the ratios)")
    parser.add_argument("b", type=Path, help="checkout B")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=30, help="rounds per side, at least 2 (default 30)")
    parser.add_argument("--seed", type=int, default=101, help="synth seed of the first round (default 101)")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 for quartiles")
    a, b = load_package(args.a, "mixquant_a"), load_package(args.b, "mixquant_b")
    for pkg in (a, b):
        importlib.import_module(f"{pkg.__name__}.cli")  # binds pkg.cli
    print(f"{'row':10} {'A':>9} {'B':>9}  B/A median [q1, q3]")
    for r in compare(a, b, args.workload, args.rounds, args.seed):
        print(f"{r['name']:10} {r['a']:9.4f} {r['b']:9.4f}  "
              f"{r['ratio']:.3f} [{r['q1']:.3f}, {r['q3']:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
