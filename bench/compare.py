"""Run two sets of benchmark runs of the same code and report each end-to-end
metric's spread against its bound.

    python3 bench/compare.py [--runs 10] [--seconds S]

Every workload of BENCHMARK.json runs --runs times per set, each run with its
own seed (set k, run i -> 1 + k * runs + i); runs rotate over the workloads
so that slow drift of the machine touches all of them alike. For every
workload and metric it prints, per set, the median and the spread
(Q3 - Q1) / median from `statistics.quantiles(values, n=4)`, and the shift of
the second set's median from the first's in the metric's worse direction,
each against the metric's bound from BENCHMARK.json. The raw values go to
.bench_out/compare-<time>.json. Exits 1 if any spread or any shift exceeds
its bound, if a run is not correct, or if the share of failed operations
differs between the sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETS = 2


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        print(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr, flush=True)
    result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0, "failed": 0}
    return {"metrics": {}, **result}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least 2 runs")

    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for i in range(args.runs):
            seed = 1 + k * args.runs + i
            for w in workloads:
                start = time.perf_counter()
                results[w][k].append(run_once(bench["command"], w, seed, args.seconds))
                print(f"set {k + 1} run {i + 1}/{args.runs} {w} seed {seed}: "
                      f"{time.perf_counter() - start:.1f}s", file=sys.stderr, flush=True)

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    dump.write_text(json.dumps({"seconds": args.seconds, "runs": args.runs, "results": results}))

    ok = True
    print(f"{'workload':18s} {'metric':14s} {'bound':>6s} {'median1':>12s} {'spread1':>8s} "
          f"{'median2':>12s} {'spread2':>8s} {'shift':>8s}")
    for w in workloads:
        shares = [sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
                  for runs in results[w]]
        if not all(all(r["correct"] for r in runs) for runs in results[w]):
            print(f"{w}: a run reported correct=false")
            ok = False
        if shares[0] != shares[1]:
            print(f"{w}: failed share differs between sets: {shares}")
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                    for runs in results[w]]
            if min(map(len, sets)) < 2:
                print(f"{w:18s} {name:14s} fewer than 2 values in a set")
                ok = False
                continue
            cols, meds = [], []
            for values in sets:
                med, sp = spread(values)
                meds.append(med)
                ok &= sp <= bound
                cols.append(f"{med:12.6g} {100 * sp:7.2f}%{'!' if sp > bound else ' '}")
            worse = (meds[1] - meds[0]) if metric["better"] == "lower" else (meds[0] - meds[1])
            shift = worse / meds[0]
            ok &= shift <= bound
            print(f"{w:18s} {name:14s} {100 * bound:5.1f}% " + " ".join(cols)
                  + f" {100 * shift:7.2f}%{'!' if shift > bound else ' '}")
    print(f"raw values: {dump.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
