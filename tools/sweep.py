"""Byte-identity sweep: run a fixed grid of pipeline commands and hash every
file they write, so that two checkouts can be compared artifact by artifact.

    python tools/sweep.py CHECKOUT OUT [--budget BYTES]
    python tools/sweep.py --diff OUT_A/SHA256SUMS OUT_B/SHA256SUMS

Everything runs in this one process through `mixquant.cli.main`, imported
from CHECKOUT/src. For each of the three archs and synth seed 3 and
106 (mininet 106 with `--scale-layer fc --scale-factor 50 --scale-stride 64`),
with 16 calibration and 16 eval images:

- synth (model, image files, labels.json, the `.ref` file) and calibrate;
- analyze with each of the four methods at `--ir-stage` unfused and fused
  (delta-mixup with `--out-metrics`; top1 ranks on the eval images);
- quantize each list at targets 0, 20, ..., 100, applied fused, and the
  unfused delta-mixup list also applied unfused;
- evaluate every quantized model, and one report (recovery curve) per list;
- one more evaluate of each model's fused delta-mixup q60 model on a copy of
  the eval images with no `.ref` file beside it, which takes the fallback
  path that runs the FP32 reference pass itself.

`--budget` sets `mixquant.executor.ACTIVATION_BUDGET_BYTES` before anything
runs (default: the checkout's own value), so every batch size can be pushed
to 1 image (`--budget 1`) or to the whole image set (`--budget 1e9`). No file
records a path, so OUT may differ between the runs being compared. OUT must
not exist yet; the sweep writes OUT/SHA256SUMS last, one `sha256  path` line
per file, sorted by path.

`--diff A B` compares two such files: it lists every path whose hash differs
or that only one file lists, then how many of them carry each file name, and
exits 1 if any path differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib
import io
import sys
from pathlib import Path

ARCHS = ("mininet", "mini_resnet", "mini_mobilenet")
SEEDS = (3, 106)
PATHOLOGY = ("--scale-layer", "fc", "--scale-factor", "50", "--scale-stride", "64")
METHODS = ("delta-mixup", "in-order", "weight-sqnr", "top1")
STAGES = ("unfused", "fused")
TARGETS = (0, 20, 40, 60, 80, 100)
IMAGES = 16
FALLBACK_TARGET = 60


def load_cli(checkout: Path, budget: int | None):
    """`mixquant.cli` from CHECKOUT/src, with the activation budget set."""
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("mixquant.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported mixquant from {cli.__file__}, not from {src}")
    if budget is not None:
        importlib.import_module("mixquant.executor").ACTIVATION_BUDGET_BYTES = budget
    return cli


def sweep(cli, out: Path, archs=ARCHS) -> None:
    def run(*argv) -> None:
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"`mixquant {' '.join(argv)}` exited {code}")

    for arch in archs:
        for seed in SEEDS:
            d = out / f"{arch}_{seed}"
            flags = PATHOLOGY if arch == "mininet" and seed == 106 else ()
            run("synth", "--arch", arch, "--seed", seed, "--calib-count", IMAGES,
                "--eval-count", IMAGES, *flags, "--out-dir", d)
            model, calib = d / "model", d / "calib.json"
            images, labels = d / "eval_images.bin", d / "labels.json"
            run("calibrate", "--model", model, "--images", d / "calib_images.bin", "--out", calib)
            for method in METHODS:
                for stage in STAGES:
                    w = d / f"{method}_{stage}"
                    w.mkdir()
                    extra = ("--out-metrics", w / "metrics.csv") if method == "delta-mixup" else ()
                    run("analyze", "--model", model, "--calib", calib, "--method", method,
                        "--ir-stage", stage, "--labels", labels, "--out-list", w / "sensitivity.txt",
                        "--images", images if method == "top1" else d / "calib_images.bin", *extra)
                    applied = ("fused", "unfused") if (method, stage) == ("delta-mixup", "unfused") \
                        else ("fused",)
                    for apply in applied:
                        q = w / f"apply_{apply}"
                        run("quantize", "--model", model, "--calib", calib,
                            "--list", w / "sensitivity.txt", "--apply-stage", apply,
                            "--target-reduction", ",".join(map(str, TARGETS)), "--out-dir", q)
                        reports = [q / f"report{t}.json" for t in TARGETS]
                        for t, report in zip(TARGETS, reports):
                            run("evaluate", "--model", q / f"q{t}" / "model", "--ref-model", model,
                                "--images", images, "--labels", labels, "--out", report)
                        run("report", "--runs", *reports, "--out", q / "recovery_curve.csv")
            bare = d / "no_ref" / images.name
            bare.parent.mkdir()
            bare.write_bytes(images.read_bytes())
            run("evaluate", "--model", d / f"delta-mixup_fused/apply_fused/q{FALLBACK_TARGET}/model",
                "--ref-model", model, "--images", bare, "--labels", labels,
                "--out", d / "no_ref" / f"report{FALLBACK_TARGET}.json")


def write_sums(out: Path) -> int:
    files = sorted(p for p in out.rglob("*") if p.is_file())
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}\n"
             for p in files]
    (out / "SHA256SUMS").write_text("".join(lines))
    return len(files)


def diff_sums(a: Path, b: Path) -> list[str]:
    """Paths whose hash differs between two SHA256SUMS files, or that only one lists."""
    def read(path: Path) -> dict[str, str]:
        return {name: digest for digest, name in
                (line.split("  ", 1) for line in path.read_text().splitlines())}

    x, y = read(a), read(b)
    return sorted(p for p in x.keys() | y.keys() if x.get(p) != y.get(p))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, nargs="?", help="source tree whose src/ is swept")
    parser.add_argument("out", type=Path, nargs="?", help="directory to create for the artifacts")
    parser.add_argument("--budget", type=lambda s: int(float(s)), default=None,
                        help="activation budget in bytes (default: the checkout's)")
    parser.add_argument("--diff", type=Path, nargs=2, metavar=("SUMS_A", "SUMS_B"),
                        help="compare two SHA256SUMS files instead of sweeping")
    args = parser.parse_args(argv)
    if args.diff:
        differ = diff_sums(*args.diff)
        for path in differ:
            print(path)
        for name, count in sorted(collections.Counter(Path(p).name for p in differ).items()):
            print(f"{count:6d}  {name}")
        print(f"sweep: {len(differ)} paths differ")
        return 1 if differ else 0
    if args.out is None:
        parser.error("give CHECKOUT and OUT, or --diff SUMS_A SUMS_B")
    if args.out.exists():
        parser.error(f"{args.out} exists; the sweep writes into a new directory")
    cli = load_cli(args.checkout, args.budget)
    sweep(cli, args.out)
    print(f"sweep: {write_sums(args.out)} files -> {args.out / 'SHA256SUMS'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
