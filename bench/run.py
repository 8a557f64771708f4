"""Compile-and-deploy benchmark of the mixquant pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the six-command pipeline on one workload, in this
process, until S seconds have passed and at least MODELS rounds ran, checks
every round's artifacts, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}, also when a command or a check
fails. An operation is one CLI command. Round r synthesizes its model and
images with seed N * MODELS + (r mod MODELS), so one run covers MODELS
models; the quality metrics average over those models, which keeps their
spread across --seed values small, and a model met twice must give the same
figures again.

With --trace 0 the metrics are the end-to-end ones, times as medians over
rounds. With --trace 1 each model runs once untraced and then once traced;
the metrics are the per-layer ones (medians over traced rounds) plus the
tracer's overhead against the untraced rounds, and the last traced round's
spans go to .bench_out/trace_<workload>_seed<N>.jsonl.

BLAS runs single-threaded: the variables below are set before numpy loads.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODELS = 8
MIN_TAIL = 10  # latency samples beyond the reported p95


def _p95(samples: list[float]) -> float:
    if len(samples) * 0.05 < MIN_TAIL:
        raise ValueError(f"{len(samples)} latency samples leave fewer than {MIN_TAIL} beyond p95")
    return statistics.quantiles(samples, n=20)[18]


def mean_quality(by_seed: dict[int, dict]) -> dict:
    return {k: statistics.fmean(q[k] for q in by_seed.values()) for k in next(iter(by_seed.values()))}


def end_to_end(rounds, quality: dict) -> dict:
    latencies = [s for r in rounds for s in r.latencies]
    values = {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "compile_s": (statistics.median(r.compile_s for r in rounds), "s"),
        "evaluate_s": (statistics.median(r.evaluate_s for r in rounds), "s"),
        "infer_ms": (1e3 * statistics.median(latencies), "ms"),
        "infer_p95_ms": (1e3 * _p95(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "top1_accuracy": (quality["top1_accuracy"], "fraction"),
        "logit_sqnr_db": (quality["logit_sqnr_db"], "dB"),
        "qdq_count": (quality["qdq_count"], "count"),
        "qmodel_bytes": (quality["qmodel_bytes"], "bytes"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(traced: list[dict], untraced_s: list[float], traced_s: list[float]) -> dict:
    out = {name: {"value": statistics.median(m[name] for m in traced), "unit": tracer.unit(name)}
           for name in traced[0]}
    base = statistics.median(untraced_s)
    out["trace.overhead_pct"] = {"value": 100.0 * (statistics.median(traced_s) - base) / base,
                                 "unit": "%"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mixquant" / "__init__.py").is_file():
        print(f"error: no mixquant sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    runner = pipeline.Runner(args.workload, work)
    rounds, layer, untraced_s, traced_s = [], [], [], []
    quality: dict[int, dict] = {}
    logit_sqnr: dict[int, dict] = {}
    heads: dict[int, str] = {}
    last, metrics = None, {}
    correct = True
    start = time.perf_counter()
    try:
        while True:
            r = len(rounds)
            seed = args.seed * MODELS + (r // 2 if args.trace else r) % MODELS
            t = tracer.Tracer() if args.trace and r % 2 else None
            if t:
                t.install()
            try:
                rnd = runner.run(seed, latency=not args.trace,
                                 image_passes=t.image_passes if t else None)
            finally:
                if t:
                    t.uninstall()
            if quality.setdefault(seed, rnd.quality) != rnd.quality:
                raise checks.CheckFailed(f"model seed {seed} gave {rnd.quality} on round {r}, "
                                         f"{quality[seed]} before")
            logit_sqnr.setdefault(seed, rnd.logit_sqnr)
            heads.setdefault(seed, rnd.heads["delta-mixup"])
            rounds.append(rnd)
            if t:
                m = tracer.layer_metrics(t.spans, pipeline.EVAL_COUNT)
                layer.append({k: v * rnd.scale if tracer.unit(k) in ("s", "ms") else v
                              for k, v in m.items()})
                traced_s.append(rnd.pipeline_s)
                last = t
            else:
                untraced_s.append(rnd.pipeline_s)
            done = time.perf_counter() - start >= args.seconds and len(quality) == MODELS
            if done and not (args.trace and len(rounds) % 2):
                break
        if runner.wl.heavy_layer:
            checks.check_pathology(list(logit_sqnr.values()), list(heads.values()),
                                   runner.wl.heavy_layer)
        if args.trace:
            last.write(OUT / f"trace_{args.workload}_seed{args.seed}.jsonl",
                       {"workload": args.workload, "seed": args.seed, "blas_threads": BLAS_THREADS})
            metrics = per_layer(layer, untraced_s, traced_s)
        else:
            metrics = end_to_end(rounds, mean_quality(quality))
    except (pipeline.CommandFailed, checks.CheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        correct = False
    except Exception:  # any other fault fails the run but still ends in a result line
        traceback.print_exc()
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    scale = f"{statistics.median(r.scale for r in rounds):.3f}" if rounds else "n/a"
    print(f"{len(rounds)} rounds over {len(quality)} models in {time.perf_counter() - start:.1f}s; "
          f"speed scale median {scale}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
