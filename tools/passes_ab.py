"""In-process A/B timing of batch-1 passes between two checkouts.

    python tools/passes_ab.py A B

Imports A/src/mixquant and B/src/mixquant into this one process as the
packages `mixquant_a` and `mixquant_b`. With A it synthesizes one model per
arch (synth seed SEED) and calibrates it. It quantizes the fused graph fully
to int8, and to a mixed-precision model at a Q40_TARGET % BOPs reduction
from the in-order list (`select_dequant_set`), the kind of q40 model that
`quantize` writes and `bench/run.py`'s `infer_ms` samples. It saves the
three models, which each side then loads with its own `load_model`. Each of
ROUNDS rounds times, for A and then B or for B and then A (the order
alternates by round), eight operations over IMAGES eval images: batch-1
`run_quantized` on the int8 model (`run_quantized`) and on the q40 model
(`run_q40`) and batch-1 `reference_pass` on the FP32 model, each on a graph
warmed by one pass per image; `load_and_score`: `load_model` of the
int8 model, then one `reference_pass` over all the images, as each
`evaluate` command scores a fresh graph; and the compile stage's two sweeps
over all the images in their own batches, `calibrate` (`profile_activations`
on the FP32 model) and `analyze` (`generate_sensitivity_list` on it, with a
profile of the same images, which quantizes and binds a fresh int8 graph per
call as the command does); and `top1` (`baseline_order(..., "top1")` on the
FP32 model with that profile and the FP32 model's own predictions as labels,
one graph per fusion group per call), the largest compile command of
`bench/run.py`'s resnet_methods; and `quantize`, the quantize command's
library work: `select_dequant_set` from the in-order list and
`apply_mixed_precision` at each of QUANTIZE_TARGETS on the fused FP32 graph
(it reads no images, but its time is divided by IMAGES like the rest). The warm operations hide what a graph costs once
(its program, shapes, bound steps and weight casts); `load_and_score` pays it
every time. One line per arch and operation gives A's and B's median ms per
image and the median of the per-round B/A ratios with its quartiles.

Both sides share one process, so the between-process spread of
`bench/run.py` (allocator state, page faults) cancels out of the ratios.
It sizes a change; a claimed gain still comes from `bench/run.py`.
BLAS runs single-threaded: the variables below are set before numpy loads.
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
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ARCHS = ("mininet", "mini_resnet", "mini_mobilenet")
CALIB_IMAGES = 8
IMAGES = 8
Q40_TARGET = 40
QUANTIZE_TARGETS = (20, 40, 60, 80)
ROUNDS = 30
SEED = 3


def load_package(checkout: Path, name: str):
    """CHECKOUT/src/mixquant imported as the top-level package `name`."""
    init = (checkout / "src" / "mixquant" / "__init__.py").resolve()
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def build_models(mq, arch: str, seed: int, out: Path) -> tuple[Path, Path, Path]:
    """Save the FP32 model and its fully int8 and q40 fused graphs under `out`."""
    graph = mq.gen_synthetic(arch, seed)
    shape = tuple(graph.input_node.attrs["shape"])
    calib = mq.profile_activations(graph, mq.gen_images(CALIB_IMAGES, shape, seed + 1))
    fused = mq.lower_to_stage(graph, "fused")
    keep = mq.select_dequant_set(mq.baseline_order(graph, "in_order"), fused, Q40_TARGET)
    models = (graph, mq.apply_mixed_precision(fused, [], calib), mq.apply_mixed_precision(fused, keep, calib))
    paths = out / f"{arch}_fp32", out / f"{arch}_int8", out / f"{arch}_q40"
    for g, path in zip(models, paths):
        mq.save_model(g, path)
    return paths


def operations(mq, fp32: Path, int8: Path, q40: Path, images):
    """name -> callable running one operation over the images."""
    ex, graph = mq.Executor(), mq.load_model(fp32)
    rows = [mq.Tensor.f32(images[i:i + 1]) for i in range(images.shape[0])]

    def batch1(g):
        def run():
            for x in rows:
                ex.run_quantized(g, x)
        return run

    def reference():
        for i in range(images.shape[0]):
            mq.reference_pass(graph, images[i:i + 1], ex)

    def load_and_score():
        mq.reference_pass(mq.load_model(int8), images, ex)

    calib = mq.profile_activations(graph, images)

    def calibrate():
        mq.profile_activations(graph, images, ex)

    def analyze():
        mq.generate_sensitivity_list(graph, calib, images, executor=ex)

    labels = mq.reference_pass(graph, images).preds

    def top1():
        mq.baseline_order(graph, "top1", images=images, labels=labels, calib=calib, executor=ex)

    fused, order = mq.lower_to_stage(graph, "fused"), mq.baseline_order(graph, "in_order")

    def quantize():
        for target in QUANTIZE_TARGETS:
            mq.apply_mixed_precision(fused, mq.select_dequant_set(order, fused, target), calib)

    return {"run_quantized": batch1(mq.load_model(int8)), "run_q40": batch1(mq.load_model(q40)),
            "reference_pass": reference, "load_and_score": load_and_score,
            "calibrate": calibrate, "analyze": analyze, "top1": top1, "quantize": quantize}


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def compare(a, b) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for arch in ARCHS:
            models = build_models(a, arch, SEED, Path(tmp))
            shape = tuple(a.load_model(models[0]).input_node.attrs["shape"])
            imgs = a.gen_images(IMAGES, shape, SEED + 2)
            sides = [operations(pkg, *models, imgs) for pkg in (a, b)]
            for op in sides[0]:
                for side in sides:
                    side[op]()  # warm-up: bind, cache, allocate
                t = [[], []]
                for r in range(ROUNDS):
                    for s in ((0, 1) if r % 2 == 0 else (1, 0)):
                        t[s].append(timed(sides[s][op]) / IMAGES)
                ratios = [tb / ta for ta, tb in zip(*t)]
                q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
                rows.append({"arch": arch, "op": op, "a_ms": 1e3 * statistics.median(t[0]),
                             "b_ms": 1e3 * statistics.median(t[1]), "ratio": med, "q1": q1, "q3": q3})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout A (the base of the ratios)")
    parser.add_argument("b", type=Path, help="checkout B")
    args = parser.parse_args(argv)
    a, b = load_package(args.a, "mixquant_a"), load_package(args.b, "mixquant_b")
    print(f"{'arch':16} {'operation':15} {'A ms':>8} {'B ms':>8}  B/A median [q1, q3]")
    for r in compare(a, b):
        print(f"{r['arch']:16} {r['op']:15} {r['a_ms']:8.3f} {r['b_ms']:8.3f}  "
              f"{r['ratio']:.3f} [{r['q1']:.3f}, {r['q3']:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
