"""The benchmark's workloads and one round of the six-command pipeline.

A round runs synth -> calibrate -> analyze -> quantize -> evaluate -> report
in this process through `mixquant.cli.main`, timing each command from
outside the package, then times batch-1 `Executor.run_quantized` over every
pair of quantized model and eval image, then checks the round's artifacts.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from mixquant import cli, model_io
from mixquant.executor import Executor
from mixquant.ir import Tensor

import checks
from probe import PROBE_S, probe

TARGETS = (20, 40, 60, 80)
CALIB_COUNT = 16
EVAL_COUNT = 16
# top1 ranks on every eval image, whose teacher labels it needs. The CLI's
# default of 50 would need 50 eval images, which makes a resnet round three
# times as long and a 30-s run too few rounds to be steady (README).
TOP1_IMAGES = EVAL_COUNT
# Each pair of quantized model and image runs this often back to back; the
# fastest counts, so that a burst of contention on the host does not.
LATENCY_REPEATS = 2
LATENCY_WINDOW = 4  # latency samples between two speed probes


@dataclass(frozen=True)
class Workload:
    """`heavy_layer` names the layer the synth flags make heavy-tailed."""

    arch: str
    methods: tuple[str, ...]
    synth_flags: tuple[str, ...] = ()
    heavy_layer: str | None = None


WORKLOADS = {
    # The paper's central case: one heavy-tailed layer the local metrics must
    # find. Dense 3x3 conv in FP32 and int8 plus the analyze metric sweep.
    "mininet_pathology": Workload(
        "mininet", ("delta-mixup", "in-order"),
        ("--scale-layer", "fc", "--scale-factor", "50", "--scale-stride", "64"),
        heavy_layer="fc"),
    # The depthwise per-channel loop dominates every stage.
    "mobilenet_sweep": Workload("mini_mobilenet", ("delta-mixup",)),
    # Every ordering on small tensors: fixed cost per node and per pass,
    # and top1's one quantized graph per fusion group.
    "resnet_methods": Workload("mini_resnet", ("delta-mixup", "in-order", "weight-sqnr", "top1")),
}


class CommandFailed(Exception):
    """A pipeline command exited with a non-zero code."""


@dataclass
class Round:
    """Seconds and image-passes per command, keyed like `analyze:top1` or
    `evaluate:in-order:40`, the speed probe's times, and batch-1 latency
    samples in seconds. Command times are as measured; the stage properties
    and the latency samples are scaled to the probe's reference speed."""

    times: dict[str, float] = field(default_factory=dict)
    passes: dict[str, int] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    heads: dict[str, str] = field(default_factory=dict)
    logit_sqnr: dict[str, dict[int, float]] = field(default_factory=dict)

    @property
    def scale(self) -> float:
        return PROBE_S / statistics.median(self.probes)

    def stage_s(self, *commands: str) -> float:
        return self.scale * sum(t for key, t in self.times.items() if key.split(":")[0] in commands)

    @property
    def setup_s(self) -> float:
        return self.stage_s("synth")

    @property
    def compile_s(self) -> float:
        return self.stage_s("calibrate", "analyze", "quantize")

    @property
    def evaluate_s(self) -> float:
        return self.stage_s("evaluate", "report")

    @property
    def pipeline_s(self) -> float:
        return self.scale * sum(self.times.values())


class Runner:
    """Runs rounds of one workload in a scratch directory.

    `image_passes` is a callable returning the running image-pass count when a
    tracer is installed; commands then also record their passes.
    """

    def __init__(self, name: str, work: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.work = work
        self.attempted = 0
        self.failed = 0

    def _cli(self, rnd: Round, key: str, *argv, image_passes=None) -> None:
        rnd.probes.append(probe())
        self.attempted += 1
        before = image_passes() if image_passes else 0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([str(a) for a in argv])
        except Exception:  # a crash is a failed operation like a non-zero exit
            traceback.print_exc()
            code = "an exception"
        rnd.times[key] = time.perf_counter() - start
        if image_passes:
            rnd.passes[key] = image_passes() - before
        if code != 0:
            self.failed += 1
            raise CommandFailed(f"{key} exited {code}")

    def run(self, seed: int, latency: bool = True, image_passes=None) -> Round:
        w, wl = self.work, self.wl
        shutil.rmtree(w, ignore_errors=True)
        for m in wl.methods:
            (w / m).mkdir(parents=True)
        rnd = Round()
        run = lambda key, *argv: self._cli(rnd, key, *argv, image_passes=image_passes)  # noqa: E731
        run("synth", "synth", "--arch", wl.arch, "--seed", seed, "--calib-count", CALIB_COUNT,
            "--eval-count", EVAL_COUNT, *wl.synth_flags, "--out-dir", w)
        run("calibrate", "calibrate", "--model", w / "model", "--images", w / "calib_images.bin",
            "--out", w / "calib.json")
        for m in wl.methods:
            images = w / ("eval_images.bin" if m == "top1" else "calib_images.bin")
            run(f"analyze:{m}", "analyze", "--model", w / "model", "--calib", w / "calib.json",
                "--images", images, "--labels", w / "labels.json", "--method", m,
                "--top1-images", TOP1_IMAGES, "--out-list", w / m / "sensitivity.txt")
            run(f"quantize:{m}", "quantize", "--model", w / "model", "--calib", w / "calib.json",
                "--list", w / m / "sensitivity.txt",
                "--target-reduction", ",".join(map(str, TARGETS)), "--out-dir", w / m)
        for m in wl.methods:
            for t in TARGETS:
                run(f"evaluate:{m}:{t}", "evaluate", "--model", w / m / f"q{t}" / "model",
                    "--ref-model", w / "model", "--images", w / "eval_images.bin",
                    "--labels", w / "labels.json", "--out", w / m / f"report{t}.json")
        run("report", "report", "--runs", *self.reports(), "--out", w / "recovery_curve.csv")
        rnd.probes.append(probe())
        if latency:
            self.sample_latency(rnd)
        rnd.quality = self.check(rnd)
        return rnd

    def qmodels(self):
        return [(m, t, self.work / m / f"q{t}" / "model") for m in self.wl.methods for t in TARGETS]

    def reports(self):
        return [self.work / m / f"report{t}.json" for m in self.wl.methods for t in TARGETS]

    def sample_latency(self, rnd: Round) -> None:
        """Time every pair of quantized model and eval image. Each window of
        LATENCY_WINDOW samples is scaled by the mean of the probes taken just
        before and just after it, so that a burst of contention lasting
        longer than the repeats is cancelled where it falls."""
        images = model_io.load_images(self.work / "eval_images.bin")
        ex = Executor()
        samples, probes = [], [probe()]
        for _, _, path in self.qmodels():
            qg = model_io.load_model(path)
            for i in range(images.shape[0]):
                img = Tensor.f32(images[i:i + 1])
                best = float("inf")
                for _ in range(LATENCY_REPEATS):
                    start = time.perf_counter()
                    ex.run_quantized(qg, img)
                    best = min(best, time.perf_counter() - start)
                samples.append(best)
                if len(samples) % LATENCY_WINDOW == 0:
                    probes.append(probe())
        if len(samples) % LATENCY_WINDOW:
            probes.append(probe())
        for k, t in enumerate(samples):
            w = k // LATENCY_WINDOW
            rnd.latencies.append(t * 2 * PROBE_S / (probes[w] + probes[w + 1]))

    def check(self, rnd: Round) -> dict[str, float]:
        """Check every artifact of the round; record the head of each
        sensitivity list and the logit SQNR per method and target, and return
        the round's quality figures."""
        w, wl = self.work, self.wl
        analysis = checks.read_manifest(w / "model")
        for m in wl.methods:
            path = w / m / "sensitivity.txt"
            ids = [line for line in path.read_text().splitlines() if line]
            checks.check_sensitivity_list(ids, analysis, str(path))
            rnd.heads[m] = ids[0]
        accs = []
        rnd.logit_sqnr = sqnr_db = {m: {} for m in wl.methods}
        qdq = qbytes = 0
        for (m, t, path), report_path in zip(self.qmodels(), self.reports()):
            report = json.loads(report_path.read_text())
            manifest = checks.read_manifest(path)
            precision = json.loads((path.parent / "precision.json").read_text())
            checks.check_ref_accuracy(report, str(report_path))
            checks.check_bops(report, manifest, precision, t, str(report_path))
            checks.check_qdq(report, manifest, str(report_path))
            accs.append(report["accuracy"])
            sqnr_db[m][t] = report["final_logit_sqnr_db"]
            qdq += report["qdq_count"]
            qbytes += sum(f.stat().st_size for f in path.iterdir())
        if rnd.passes:
            self.check_passes(rnd, analysis)
        dbs = [d for by_target in sqnr_db.values() for d in by_target.values()]
        return {"top1_accuracy": sum(accs) / len(accs), "logit_sqnr_db": sum(dbs) / len(dbs),
                "qdq_count": qdq, "qmodel_bytes": qbytes}

    def check_passes(self, rnd: Round, analysis: dict) -> None:
        """The paper's cost contract: two image-passes per calibration image;
        top1 evaluates the FP32 model once and one graph per fusion group."""
        if "delta-mixup" in self.wl.methods:
            checks.check_passes(rnd.passes["analyze:delta-mixup"], 2 * CALIB_COUNT,
                                "delta-mixup analyze")
        if "top1" in self.wl.methods:
            groups = len(checks.fusion_groups(analysis))
            checks.check_passes(rnd.passes["analyze:top1"],
                                (groups + 1) * TOP1_IMAGES, "top1 analyze")
