"""Span tracer that wraps mixquant's public functions from outside the package.

`Tracer.install` replaces every public module-level function of each mixquant
module, plus a few public methods, with a wrapper that records a span
(name, start, end, parent, items) in memory; every module-level reference to
the original, including names imported into other modules, is rebound to the
wrapper. `uninstall` restores the originals. `layer_metrics` turns the spans
of one pipeline round into the per-layer metrics, with self time being a
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("bops", "calibration", "cli", "executor", "fusion", "ir", "metrics",
           "model_io", "quantizer", "sensitivity")
METHODS = {
    "executor": {"Executor": ("run_fp32", "run_quantized")},
    "calibration": {"HistogramProfile": ("update",), "CalibrationProfile": ("save", "load")},
    "sensitivity": {"SensitivityList": ("save", "load")},
}
# An elementwise helper on the requantize path, left untraced so that its time
# stays in executor.int8.self_s.
UNTRACED = frozenset({"ir.round_half_away"})
RUNS = {"executor.Executor.run_fp32": "fp32", "executor.Executor.run_quantized": "int8"}
QDQ = frozenset({"quantizer.quantize_affine", "quantizer.dequantize"})
# kernel_flatten is left out: no synthetic architecture has a Flatten node.
KERNELS = ("kernel_conv2d", "kernel_depthwise_conv2d", "kernel_batchnorm", "kernel_relu",
           "kernel_add", "kernel_maxpool", "kernel_avgpool", "kernel_global_avgpool",
           "kernel_gemm", "kernel_softmax")
COMMANDS = ("synth", "calibrate", "analyze", "quantize", "evaluate", "report")
PASS_STAGES = ("synth", "calibrate", "analyze", "evaluate")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, items]
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.passes = 0  # image-passes so far, counted by batch size

    def image_passes(self) -> int:
        return self.passes

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        run = name in RUNS

        def traced(*args, **kwargs):
            items = 0
            if run:  # Executor.run_*(self, graph, inp, ...)
                items = (args[2] if len(args) > 2 else kwargs["inp"]).shape[0]
            span = [name, clock(), 0.0, stack[-1] if stack else -1, items]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self.passes += items
            return result

        return traced

    def install(self) -> None:
        import mixquant

        modules = [importlib.import_module(f"mixquant.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_") and name not in UNTRACED:
                    wrapped[obj] = self._wrap(name, obj)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    raw = cls.__dict__.get(m)
                    if raw is None:  # renamed or removed: its metrics read 0
                        continue
                    name = f"{short}.{cls_name}.{m}"
                    new = classmethod(self._wrap(name, raw.__func__)) \
                        if isinstance(raw, classmethod) else self._wrap(name, raw)
                    self._restore.append((cls, m, raw))
                    setattr(cls, m, new)
        for mod in [mixquant, *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, items in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "items": items}) + "\n")


def layer_metrics(spans: list[list], eval_images: int) -> dict[str, float]:
    """Per-layer totals of one round. Inclusive times unless named `self`;
    a kernel called from inside another kernel counts toward the outer one."""
    n = len(spans)
    child = [0.0] * n
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    command = [""] * n  # enclosing cli command
    run = [""] * n      # enclosing executor pass: fp32 or int8
    in_kernel = [False] * n
    total, self_t, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    kernel_t, passes = defaultdict(float), defaultdict(int)
    run_t, run_items = defaultdict(float), defaultdict(int)
    qdq = 0.0
    for i, (name, start, end, parent, items) in enumerate(spans):
        if parent >= 0:  # parents are appended before their children
            command[i], run[i] = command[parent], run[parent]
            in_kernel[i] = in_kernel[parent] or spans[parent][0].startswith("executor.kernel_")
        if name.startswith("cli.cmd_"):
            command[i] = name[len("cli.cmd_"):]
        dur = end - start
        total[name] += dur
        self_t[name] += dur - child[i]
        calls[name] += 1
        if name in RUNS:
            run[i] = RUNS[name]
            passes[command[i]] += items
            run_t[run[i]] += dur
            run_items[run[i]] += items
        elif name.startswith("executor.kernel_") and run[i] and not in_kernel[i]:
            kernel_t[run[i], name[len("executor."):]] += dur
        elif name in QDQ and run[i] == "int8":
            qdq += dur

    m: dict[str, float] = {f"cli.{c}_s": total[f"cli.cmd_{c}"] for c in COMMANDS}
    for fn in ("gen_synthetic", "gen_images", "save_model", "load_model", "load_images"):
        m[f"model_io.{fn}_s"] = total[f"model_io.{fn}"]
    m["calibration.profile_self_s"] = self_t["calibration.profile_activations"]
    m["calibration.hist_update_s"] = total["calibration.HistogramProfile.update"]
    m["calibration.hist_update_calls"] = calls["calibration.HistogramProfile.update"]
    m["calibration.profile_save_s"] = total["calibration.CalibrationProfile.save"]
    m["calibration.profile_load_s"] = total["calibration.CalibrationProfile.load"]
    m["calibration.profile_load_calls"] = calls["calibration.CalibrationProfile.load"]
    m["executor.image_passes"] = sum(passes.values())
    for stage in PASS_STAGES:
        m[f"executor.passes.{stage}"] = passes[stage]
    evals = calls["cli.cmd_evaluate"] * eval_images
    m["executor.passes_per_eval_image"] = passes["evaluate"] / evals if evals else 0.0
    for kind in ("fp32", "int8"):
        m[f"executor.{kind}_pass_ms"] = 1e3 * run_t[kind] / run_items[kind] if run_items[kind] else 0.0
    for kind in ("fp32", "int8"):
        for k in KERNELS:
            m[f"executor.{kind}.{k}_s"] = kernel_t[kind, k]
    m["executor.int8.qdq_s"] = qdq
    m["executor.int8.self_s"] = self_t["executor.Executor.run_quantized"]
    for short, fn in (("sqnr", "sqnr"), ("mse", "mse"), ("cosine", "cosine_similarity"),
                      ("kl", "kl_divergence")):
        m[f"metrics.{short}_s"] = total[f"metrics.{fn}"]
        m[f"metrics.{short}_calls"] = calls[f"metrics.{fn}"]
    m["sensitivity.analyze_self_s"] = self_t["sensitivity.generate_sensitivity_list"]
    m["sensitivity.baseline_s"] = total["sensitivity.baseline_order"]
    m["sensitivity.evaluate_accuracy_s"] = total["sensitivity.evaluate_accuracy"]
    m["sensitivity.teacher_labels_s"] = total["sensitivity.teacher_labels"]
    m["fusion.lower_s"] = total["fusion.lower_to_stage"]
    m["fusion.groups_s"] = total["fusion.discover_fusion_groups"]
    m["fusion.groups_calls"] = calls["fusion.discover_fusion_groups"]
    m["quantizer.apply_s"] = total["quantizer.apply_mixed_precision"]
    m["quantizer.apply_calls"] = calls["quantizer.apply_mixed_precision"]
    m["quantizer.select_s"] = total["quantizer.select_dequant_set"]
    m["ir.topo_sort_s"] = total["ir.topo_sort"]
    m["ir.topo_sort_calls"] = calls["ir.topo_sort"]
    m["ir.dce_cse_s"] = total["ir.dce_cse"]
    m["ir.infer_shapes_s"] = total["ir.infer_shapes"]
    m["bops.bops_s"] = total["bops.bops"]
    m["bops.calls"] = calls["bops.bops"]
    return m


def unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name == "executor.passes_per_eval_image":
        return "passes/image"
    return "count"
