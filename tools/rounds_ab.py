"""In-process A/B of whole benchmark rounds between two checkouts.

    python tools/rounds_ab.py A B WORKLOAD [--rounds N] [--seed S]

Runs this checkout's bench/pipeline.py round (commands, latency samples,
artifact checks) on A/src/mixquant and B/src/mixquant, loaded into one process
as `mixquant_a` and `mixquant_b`, in /dev/shm where there is one. Round r runs
each side on synth seed S + r, A first in even rounds and B first in odd ones;
a failed command or check exits 1 naming the side and the round. The probes
and checks make a run 1.6-1.8 times as long as timing commands and latencies.

Per stage (`setup_s`: synth; `compile_s`: calibrate, analyze, quantize;
`evaluate_s`: evaluate, report; `infer_ms`: the median batch-1 latency, scaled
per probe window as in the benchmark), then per command (seconds as measured,
summed over a round), it prints A's and B's median over rounds and the median
per-round B/A ratio with its quartiles. One process cancels the between-process
spread: the ratios say whether a gap is the code; a gain is still claimed from
`bench/run.py`. BLAS runs single-threaded: its variables are set before numpy.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

from passes_ab import load_package  # noqa: E402

BENCH = Path(__file__).resolve().parents[1] / "bench"
COMMANDS = ("synth", "calibrate", "analyze", "quantize", "evaluate", "report")
STAGES = {"setup_s": ("synth",), "compile_s": ("calibrate", "analyze", "quantize"),
          "evaluate_s": ("evaluate", "report"), "infer_ms": ("infer",)}


def load_side(checkout: Path, side: str):
    """bench/pipeline.py run as `pipeline_<side>` on CHECKOUT's package, loaded as
    `mixquant_<side>`; sys.modules gains that package and nothing else."""
    pkg = load_package(checkout, f"mixquant_{side}")
    importlib.import_module(f"{pkg.__name__}.cli")
    aliases = {"mixquant" + name[len(pkg.__name__):]: module for name, module in sys.modules.items()
               if name.split(".")[0] == pkg.__name__}
    spec = importlib.util.spec_from_file_location(f"pipeline_{side}", BENCH / "pipeline.py")
    pipeline = importlib.util.module_from_spec(spec)
    # @dataclass looks its module up in sys.modules while the body runs
    with mock.patch.dict(sys.modules, {**aliases, spec.name: pipeline}), \
            mock.patch.object(sys, "path", [str(BENCH), *sys.path]):
        spec.loader.exec_module(pipeline)
    return pipeline


def compare(sides, workload: str, rounds: int, seed: int) -> list[tuple]:
    with tempfile.TemporaryDirectory(dir="/dev/shm" if os.path.isdir("/dev/shm") else None) as tmp:
        per = [[], []]  # per side, one dict of times per round
        for r in range(rounds):
            for s in ((0, 1) if r % 2 == 0 else (1, 0)):
                try:
                    rnd = sides[s].Runner(workload, Path(tmp) / "ab"[s]).run(seed + r)
                except (sides[s].CommandFailed, sides[s].checks.CheckFailed) as exc:
                    raise SystemExit(f"side {'AB'[s]}, round {r} (seed {seed + r}): {exc}") from None
                times = {c: sum(t for k, t in rnd.times.items() if k.split(":")[0] == c) for c in COMMANDS}
                per[s].append({**times, "infer": 1e3 * statistics.median(rnd.latencies)})
    rows = []
    for name, keys in [*STAGES.items(), *((c, (c,)) for c in COMMANDS)]:
        ta, tb = ([sum(t[k] for k in keys) for t in side] for side in per)
        q1, med, q3 = statistics.quantiles([y / x for x, y in zip(ta, tb)], n=4, method="inclusive")
        rows.append((name, statistics.median(ta), statistics.median(tb), med, q1, q3))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout A (the base of the ratios)")
    parser.add_argument("b", type=Path, help="checkout B")
    parser.add_argument("workload", help="a workload of bench/pipeline.py")
    parser.add_argument("--rounds", type=int, default=30, help="rounds per side, at least 2 (default 30)")
    parser.add_argument("--seed", type=int, default=101, help="synth seed of the first round (default 101)")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 for quartiles")
    sides = load_side(args.a, "a"), load_side(args.b, "b")
    if args.workload not in sides[0].WORKLOADS:
        parser.error(f"workload {args.workload!r} is not one of {sorted(sides[0].WORKLOADS)}")
    rows = compare(sides, args.workload, args.rounds, args.seed)
    print(f"{'row':10} {'A':>9} {'B':>9}  B/A median [q1, q3]")
    for row in rows:
        print("{:10} {:9.4f} {:9.4f}  {:.3f} [{:.3f}, {:.3f}]".format(*row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
