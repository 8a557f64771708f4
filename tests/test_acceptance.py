"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import mixquant as mq
from mixquant.bops import bops, macs_by_node
from mixquant.calibration import activation_qparams, profile_activations, weight_qparams
from mixquant.cli import main
from mixquant.fusion import discover_fusion_groups, lower_to_stage
from mixquant.ir import Graph, Node, Tensor
from mixquant.metrics import cosine_similarity, mse, sqnr
from mixquant.model_io import Lcg, scale_node_weights
from mixquant.quantizer import count_qdq, expand_to_groups, select_dequant_set
from mixquant.sensitivity import (
    baseline_order,
    generate_sensitivity_list,
    mean_logit_sqnr,
    rank_layers_by_sensitivity,
    reference_pass,
    top1_accuracy,
)

from conftest import observed, run_f32
from test_metrics import scalar_cosine, scalar_kl, scalar_mse, scalar_sqnr


def report(criterion, text):
    print(f"\n[criterion {criterion}] PASS: {text}")


@pytest.fixture(scope="module")
def pathology_setup():
    """mininet with one layer's weights made heavy-tailed (x50 on a sparse
    subset), teacher labels, calibration; shared by criteria 6 and 7."""
    graph = scale_node_weights(mq.gen_synthetic("mininet", 42), "fc", 50.0, stride=64)
    calib_images = mq.gen_images(32, (3, 16, 16), 7)
    eval_images = mq.gen_images(128, (3, 16, 16), 9)
    calib = profile_activations(graph, calib_images)
    labels = reference_pass(graph, eval_images).preds
    return graph, calib, calib_images, eval_images, labels


def test_criterion_1_quantization_roundtrip():
    start = time.time()
    rng = Lcg(1001)
    n = 1_000_000
    lo, hi = np.float32(-3.7), np.float32(9.2)
    prof_edges = np.array([lo, hi], np.float32)
    from mixquant.calibration import RangeProfile
    r = RangeProfile()
    r.update(prof_edges)
    qp = activation_qparams(r)
    x = rng.uniform(float(lo), float(hi), (n,)).astype(np.float32)
    q = mq.quantize_affine(x, qp)
    exact = (q.data.astype(np.float64) - qp.zero_point) * qp.step
    err = np.abs(exact - x.astype(np.float64)).max()
    assert err <= qp.step / 2, f"roundtrip error {err} exceeds step/2 {qp.step / 2}"
    # storing the dequantized tensor as f32 may add at most half an ulp
    stored = mq.dequantize(q).data.astype(np.float64)
    ulp = float(max(abs(lo), abs(hi))) * 2.0 ** -24
    assert np.abs(stored - x.astype(np.float64)).max() <= qp.step / 2 + ulp

    edges = mq.quantize_affine(prof_edges, qp)
    assert edges.data[0] == qp.qmin and edges.data[1] == qp.qmax

    w = rng.uniform(-2.0, 2.0, (n // 4,)).astype(np.float32)
    wqp = weight_qparams(w)
    wq = mq.quantize_affine(w, wqp)
    wexact = (wq.data.astype(np.float64) - wqp.zero_point) * wqp.step
    werr = np.abs(wexact - w.astype(np.float64)).max()
    assert werr <= wqp.step / 2
    assert np.abs(wq.data).max() == 127

    elapsed = time.time() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, f"1e6-value roundtrip within step/2 (worst {err:.3e} vs bound "
              f"{qp.step / 2:.3e}), exact edge saturation, {elapsed:.2f}s")


def test_criterion_2_metric_oracles():
    rng = Lcg(2024)
    worst = 0.0
    for _ in range(1000):
        n = 4 + int(rng.uniform(0, 28, 1)[0])
        ref = rng.uniform(-5, 5, (n,))
        test = ref + rng.uniform(-0.5, 0.5, (n,))
        for fast, slow in ((sqnr, scalar_sqnr), (mse, scalar_mse), (cosine_similarity, scalar_cosine)):
            a, b = fast(ref, test), slow(ref.tolist(), test.tolist())
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    from mixquant.metrics import kl_from_histograms
    for _ in range(200):
        p = [float(rng.uniform(0, 1, 1)[0]) for _ in range(32)]
        q = [float(rng.uniform(0, 1, 1)[0]) for _ in range(32)]
        worst = max(worst, abs(kl_from_histograms(p, q) - scalar_kl(p, q)))
    assert worst <= 1e-9

    ref = rng.uniform(-1, 1, (256,))
    pairs = []
    for k in range(16):
        noisy = ref + rng.uniform(-1, 1, (256,)) * 0.001 * (k + 1)
        pairs.append((mse(ref, noisy), sqnr(ref, noisy)))
    pairs.sort(key=lambda p: p[0])
    sqnrs = [p[1] for p in pairs]
    assert sqnrs == sorted(sqnrs, reverse=True), "mse/sqnr rank consistency violated"
    report(2, f"sqnr/mse/cosine/kl match scalar oracles (worst rel err {worst:.2e}); "
              f"rank consistency exact on 16 noise levels")


def test_criterion_3_fusion_equivalence():
    for arch in ("mininet", "mini_resnet", "mini_mobilenet"):
        g = mq.gen_synthetic(arch, 42)
        fused = lower_to_stage(g, "fused")
        shape = tuple(int(d) for d in g.input_node.attrs["shape"])
        images = mq.gen_images(50, shape, 31)
        worst = 0.0
        for i in range(50):
            ref = run_f32(g, images, idx=i)
            got = run_f32(fused, images, idx=i)
            worst = max(worst, float(np.abs(ref.data - got.data).max() / np.abs(ref.data).max()))
        assert worst <= 1e-4, f"{arch}: fused/unfused relative error {worst}"

    # int8 conv+relu: single quantization at the activation scale beats
    # quantize-at-conv-scale-then-requantize, on average
    rng = Lcg(5)
    g = Graph("convrelu")
    g.add(Node("input", "Input", attrs={"shape": [3, 16, 16]}))
    g.add(Node("c", "Conv2d", ["input"], attrs={"stride": 1, "padding": 1},
               weights={"weight": Tensor.f32(rng.uniform(-0.5, 0.5, (4, 3, 3, 3))),
                        "bias": Tensor.f32(rng.uniform(-0.2, 0.2, (4,)))}))
    g.add(Node("r", "ReLU", ["c"]))
    g.add(Node("output", "Output", ["r"]))
    images = mq.gen_images(100, (3, 16, 16), 11)
    calib = profile_activations(g, images)
    two_step = mq.apply_mixed_precision(lower_to_stage(g, "unfused"), [], calib)
    fused = mq.apply_mixed_precision(lower_to_stage(g, "fused"), [], calib)
    ex = mq.Executor()
    mse_two = mse_fused = 0.0
    for i in range(100):
        x = Tensor.f32(images[i:i + 1])
        ref = ex.run_fp32(g, x)
        mse_two += mse(ref, ex.run_quantized(two_step, x))
        mse_fused += mse(ref, ex.run_quantized(fused, x))
    assert mse_fused <= mse_two
    report(3, f"stage-C == stage-A within 1e-4 on 3 archs x 50 inputs; fused conv+relu "
              f"mean MSE {mse_fused / 100:.3e} <= two-step {mse_two / 100:.3e}")


def test_criterion_4_mixed_precision_contract(mininet, mininet_calib, calib_images):
    # kept nodes stay bit-exact FP32
    keep = expand_to_groups(mininet, ["b1_conv"])
    qg = mq.apply_mixed_precision(mininet, keep, mininet_calib)
    ex = mq.Executor()
    x = Tensor.f32(calib_images[0:1])
    _, ref = observed(ex.run_fp32, mininet, x, keep)
    _, got = observed(ex.run_quantized, qg, x, keep)
    for nid in keep:
        assert np.array_equal(ref[nid].data, got[nid].data), nid

    # structural Q-DQ counts
    assert count_qdq(mq.apply_mixed_precision(mininet, [], mininet_calib)) == 2
    all_nodes = expand_to_groups(mininet, [g.anchor for g in discover_fusion_groups(mininet)])
    assert count_qdq(mq.apply_mixed_precision(mininet, all_nodes, mininet_calib)) == 0
    mid = mq.apply_mixed_precision(mininet, expand_to_groups(mininet, ["b3_conv"]), mininet_calib)
    assert count_qdq(mid) == 4  # input Q, fc DQ, plus one DQ/Q pair around b3's group

    # no Quantize is fed by a Dequantize
    for n in mid.nodes:
        if n.kind == "Quantize":
            assert mid.node(n.inputs[0]).kind != "Dequantize"

    # fused application never needs more Q-DQ than unfused, same dequant set
    staged = lower_to_stage(mininet, "fused")
    for anchors in ([], ["b3_conv"], ["b4_conv"], ["b3_conv", "b6_conv"], ["fc"]):
        unfused_count = count_qdq(mq.apply_mixed_precision(
            mininet, expand_to_groups(mininet, anchors), mininet_calib))
        fused_count = count_qdq(mq.apply_mixed_precision(
            staged, expand_to_groups(staged, anchors), mininet_calib))
        assert fused_count <= unfused_count
    report(4, "kept groups bit-exact FP32; Q-DQ counts match structural oracles "
              "(2 full-int8, 0 none, 4 mid-keep); no redundant adjacent pairs; "
              "fused application Q-DQ <= unfused on 5 dequant sets")


def test_criterion_5_ranking_and_two_pass(mininet, mininet_calib, calib_images, tmp_path):
    # hand-computed 6-layer oracle: 5x-mean MSE prepend + ascending-delta mixup
    names = [f"l{i}" for i in range(6)]
    deltas_w = dict(zip(names, [1.0, -4.0, 0.5, -0.5, 2.0, 3.0]))
    deltas_a = dict(zip(names, [0.0, -1.0, -6.0, 0.5, 1.0, 2.0]))
    mses = dict(zip(names, [0.01, 0.01, 0.01, 0.01, 0.01, 1.0]))
    mse_mean = float(np.mean(list(mses.values())))  # 0.175; 5x = 0.875 < 1.0
    # ranks_w: l1<l3<l2<l0<l4<l5 -> 0..5 ; ranks_a: l2<l1<l0<l3<l4<l5
    # score = 0.6*rank_w + 0.4*rank_a:
    #   l0: 1.8+0.8=2.6  l1: 0+0.4=0.4  l2: 1.2+0=1.2  l3: 0.6+1.2=1.8
    #   l4: 2.4+1.6=4.0  l5: 3.0+2.0=5.0
    # delta order: l1, l2, l3, l0, l4, l5; l5 prepended by the MSE rule
    expected = ["l5", "l1", "l2", "l3", "l0", "l4"]
    got = rank_layers_by_sensitivity(deltas_w, deltas_a, mses, mse_mean)
    assert got == expected

    ex = mq.Executor()
    sens, _ = generate_sensitivity_list(mininet, mininet_calib, calib_images, executor=ex)
    assert ex.passes == 2 * calib_images.shape[0]

    blobs = []
    for i in range(3):
        run, _ = generate_sensitivity_list(mininet, mininet_calib, calib_images)
        run.save(tmp_path / f"s{i}.txt")
        blobs.append((tmp_path / f"s{i}.txt").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    report(5, f"6-layer hand oracle exact; {ex.passes} passes == 2 x "
              f"{calib_images.shape[0]} images; list byte-identical across 3 runs")


def test_criterion_6_pathology_recovery(pathology_setup):
    start = time.time()
    graph, calib, calib_images, eval_images, labels = pathology_setup
    ours, _ = generate_sensitivity_list(graph, calib, calib_images)
    orders = {
        "in_order": baseline_order(graph, "in_order"),
        "weight_sqnr": baseline_order(graph, "weight_sqnr"),
        "delta_mixup": ours,
    }
    staged = lower_to_stage(graph, "fused")
    targets = [20.0, 40.0, 60.0, 80.0]
    curves = {}
    for name, sens in orders.items():
        accs = []
        for target in targets:
            keep = select_dequant_set(sens, staged, target)
            qg = mq.apply_mixed_precision(staged, keep, calib)
            accs.append(top1_accuracy(reference_pass(qg, eval_images).preds, labels))
        curves[name] = accs

    assert all(o >= b for o, b in zip(curves["delta_mixup"], curves["in_order"])), curves
    assert any(o > b for o, b in zip(curves["delta_mixup"], curves["in_order"])), curves
    auc = {k: float(np.trapezoid(v, targets)) for k, v in curves.items()}
    assert auc["delta_mixup"] >= auc["weight_sqnr"], auc
    elapsed = time.time() - start
    assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s"
    report(6, f"accuracy {curves['delta_mixup']} >= in_order {curves['in_order']} "
              f"everywhere (strict somewhere); AUC {auc['delta_mixup']:.1f} >= "
              f"weight_sqnr {auc['weight_sqnr']:.1f}; {elapsed:.1f}s")


def test_criterion_7_delta_recovery_steps(pathology_setup):
    graph, calib, calib_images, eval_images, labels = pathology_setup
    images = eval_images[:32]
    ours, _ = generate_sensitivity_list(graph, calib, calib_images)
    raw = baseline_order(graph, "weight_sqnr")
    member_of = {m: g for g in discover_fusion_groups(graph) for m in g.members}
    ref_logits = reference_pass(graph, images).logits

    def curve(ids):
        anchors, seen = [], set()
        for nid in ids:
            group = member_of[nid]
            if group.anchor not in seen:
                seen.add(group.anchor)
                anchors.append(group)
        values, keep = [], []
        for k in range(len(anchors) + 1):
            qg = mq.apply_mixed_precision(graph, keep, calib)
            values.append(mean_logit_sqnr(ref_logits, reference_pass(qg, images).logits))
            if k < len(anchors):
                keep.extend(anchors[k].members)
        return values

    delta_curve = curve(ours.ids)
    raw_curve = curve(raw.ids)

    def steps_to(values, threshold):
        return next((k for k, v in enumerate(values) if v >= threshold), len(values))

    # "95% of FP32 final-logit SQNR": FP32 vs itself is the +200 dB zero-noise
    # sentinel, so the literal threshold is 190 dB (full recovery).
    literal = 0.95 * 200.0
    assert steps_to(delta_curve, literal) <= steps_to(raw_curve, literal)
    # non-vacuous variant: 95% of the first-jump plateau must be reached at
    # least as fast as the raw ordering reaches it
    plateau = delta_curve[0] + 0.95 * (min(delta_curve[1], raw_curve[1]) - delta_curve[0])
    assert steps_to(delta_curve, plateau) <= steps_to(raw_curve, plateau)
    report(7, f"delta order reaches 190 dB in {steps_to(delta_curve, literal)} steps "
              f"<= raw order {steps_to(raw_curve, literal)}; first-jump threshold "
              f"({plateau:.1f} dB) in {steps_to(delta_curve, plateau)} <= "
              f"{steps_to(raw_curve, plateau)}")


def test_criterion_8_bops_accounting():
    macs = {"c0": 1000, "fc": 500}
    g = Graph("hand")
    g.add(Node("input", "Input", attrs={"shape": [1, 4, 4]}))
    g.add(Node("c0", "Conv2d", ["input"], attrs={"stride": 1, "padding": 0},
               weights={"weight": Tensor.f32(np.ones((1, 1, 1, 1), np.float32))}))
    g.add(Node("fc", "Gemm", ["c0"], weights={"weight": Tensor.f32(np.ones((1, 16), np.float32))}))
    g.add(Node("output", "Output", ["fc"]))
    r = bops(g, {"c0": 8, "fc": 8}, macs=macs)
    assert (r.bops_config, r.bops_fp32) == (12000, 48000)
    assert np.isclose(r.literal_reduction_pct, 75.0) and np.isclose(r.normalized_reduction_pct, 100.0)
    r = bops(g, {"c0": 32, "fc": 8}, macs=macs)
    assert r.bops_config == 36000
    assert np.isclose(r.literal_reduction_pct, 25.0) and np.isclose(r.normalized_reduction_pct, 100.0 / 3)
    r = bops(g, {"c0": 32, "fc": 32}, macs=macs)
    assert r.literal_reduction_pct == 0.0 and r.normalized_reduction_pct == 0.0

    # greedy frontier vs exhaustive prefix oracle on 20 random graphs
    from test_bops import TestGreedyFrontier
    helper = TestGreedyFrontier()
    rng = Lcg(99)
    for seed in range(20):
        graph = helper.random_chain(seed)
        macs_g = macs_by_node(graph)
        order = sorted((n.id for n in graph.nodes if n.kind == "Conv2d"),
                       key=lambda nid: rng.uniform(0, 1, 1)[0])
        target = float(rng.uniform(0, 100, 1)[0])
        got = select_dequant_set(order, graph, target)
        want = helper.exhaustive_minimal_prefix(order, graph, target, macs_g)
        assert got == want, f"seed {seed}"
    report(8, "hand BOPs oracles exact (75/100, 25/33.3, 0/0); greedy frontier matches "
              "exhaustive oracle on 20 random graphs")


def test_criterion_9_pipeline_reproducibility(tmp_path):
    def pipeline(root: Path):
        d = str(root)
        for argv in (
            ["synth", "--arch", "mininet", "--seed", "42", "--calib-count", "16",
             "--eval-count", "16", "--out-dir", d],
            ["calibrate", "--model", f"{d}/model", "--images", f"{d}/calib_images.bin",
             "--out", f"{d}/calib.json"],
            ["analyze", "--model", f"{d}/model", "--calib", f"{d}/calib.json",
             "--images", f"{d}/calib_images.bin", "--out-list", f"{d}/sensitivity.txt",
             "--out-metrics", f"{d}/metrics.csv"],
            ["quantize", "--model", f"{d}/model", "--calib", f"{d}/calib.json",
             "--list", f"{d}/sensitivity.txt", "--target-reduction", "40",
             "--out-dir", d],
            ["evaluate", "--model", f"{d}/q40/model", "--ref-model", f"{d}/model",
             "--images", f"{d}/eval_images.bin", "--labels", f"{d}/labels.json",
             "--out", f"{d}/report.json"],
        ):
            assert main(argv) == 0

    pipeline(tmp_path / "a")
    pipeline(tmp_path / "b")
    checked = []
    for rel in ("model/manifest.json", "model/weights.bin", "labels.json", "eval_images.bin",
                "eval_images.bin.ref", "calib.json", "sensitivity.txt",
                "sensitivity.txt.meta.json", "metrics.csv", "q40/model/manifest.json",
                "q40/model/weights.bin", "q40/dequant_list.txt", "q40/precision.json",
                "q40/meta.json", "report.json"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
        checked.append(rel)
    digest = json.loads((tmp_path / "a/report.json").read_text())["digests"]["model"]
    report(9, f"two full pipeline runs byte-identical across {len(checked)} artifacts "
              f"(model digest {digest[:12]}...)")
