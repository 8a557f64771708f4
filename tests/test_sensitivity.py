import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixquant as mq
from mixquant import executor
from mixquant.calibration import profile_activations
from mixquant.errors import EmptyImageBatch, KeyMismatch, MissingLabels, ShapeMismatch
from mixquant.fusion import STAGES, discover_fusion_groups
from mixquant.ir import WEIGHTED_KINDS, Graph, Node, Tensor
from mixquant.model_io import scale_node_weights
from mixquant.quantizer import apply_mixed_precision
from mixquant.sensitivity import (
    SensitivityList,
    _group_adjusted,
    baseline_order,
    generate_sensitivity_list,
    logits_node_id,
    mean_logit_sqnr,
    quantizable_in_topo_order,
    rank_layers_by_sensitivity,
    reference_pass,
    save_metrics_csv,
    top1_accuracy,
)

from conftest import BUDGETS, observed


class TestRankLayers:
    def test_delta_rank_order_no_outlier(self):
        order = rank_layers_by_sensitivity(
            deltas_w={"A": 2.0, "B": -5.0, "C": 1.0},
            deltas_a={"A": 2.0, "B": -5.0, "C": 1.0},
            mse_by_layer={"A": 0.001, "B": 0.002, "C": 0.0015},
            mse_mean=0.0015,
        )
        assert order == ["B", "C", "A"]

    def test_five_times_mean_prepend(self):
        names = [f"l{i}" for i in range(6)]
        mses = dict(zip(names, [0.01, 0.01, 0.01, 0.01, 0.01, 1.0]))
        deltas = dict(zip(names, [-6.0, -5.0, -4.0, -3.0, -2.0, -1.0]))
        order = rank_layers_by_sensitivity(deltas, deltas, mses, float(np.mean(list(mses.values()))))
        assert order[0] == "l5"  # 1.0 > 5 * 0.175
        assert order[1:] == ["l0", "l1", "l2", "l3", "l4"]

    def test_all_equal_mse_never_prepends(self):
        names = ["a", "b", "c"]
        deltas = {"a": 0.0, "b": -1.0, "c": 1.0}
        mses = {k: 0.5 for k in names}
        order = rank_layers_by_sensitivity(deltas, deltas, mses, 0.5)
        assert order == ["b", "a", "c"]

    def test_outliers_sorted_descending_mse(self):
        # two simultaneous outliers need enough layers to dilute the mean
        names = [f"l{i:02d}" for i in range(42)]
        values = [0.01] * 42
        values[11], values[30] = 2.0, 3.0
        mses = dict(zip(names, values))
        deltas = {k: 0.0 for k in names}
        order = rank_layers_by_sensitivity(deltas, deltas, mses, float(np.mean(values)))
        assert order[:2] == ["l30", "l11"]

    def test_mixup_weights_break_disagreement(self):
        # weight deltas say B worst, activation deltas say C worst
        deltas_w = {"A": 0.0, "B": -5.0, "C": 1.0}
        deltas_a = {"A": 0.0, "B": 1.0, "C": -5.0}
        mses = {k: 0.1 for k in deltas_w}
        order = rank_layers_by_sensitivity(deltas_w, deltas_a, mses, 0.1, mixup=(0.6, 0.4))
        assert order[0] == "B"  # weight signal carries more weight
        order = rank_layers_by_sensitivity(deltas_w, deltas_a, mses, 0.1, mixup=(0.4, 0.6))
        assert order[0] == "C"

    def test_rank_based_scale_invariance(self):
        deltas_w = {"A": 0.3, "B": -2.0, "C": 0.1, "D": -0.5}
        deltas_a = {"A": -1.0, "B": 2.0, "C": -3.0, "D": 0.5}
        mses = {k: 1.0 for k in deltas_w}
        base = rank_layers_by_sensitivity(deltas_w, deltas_a, mses, 1.0)
        scaled = rank_layers_by_sensitivity(deltas_w, {k: 1000.0 * v for k, v in deltas_a.items()},
                                            mses, 1.0)
        assert base == scaled

    def test_key_mismatch(self):
        with pytest.raises(KeyMismatch):
            rank_layers_by_sensitivity({"A": 1.0}, {"B": 1.0}, {"A": 1.0}, 1.0)


def identity_chain(n_layers=4):
    """Chain of identical 1x1 identity convs: the int8 path is bit-exact after
    the first quantize, so every layer's metrics tie exactly."""
    g = Graph("ident")
    g.add(Node("input", "Input", attrs={"shape": [1, 4, 4]}))
    prev = "input"
    for i in range(n_layers):
        g.add(Node(f"c{i}", "Conv2d", [prev], attrs={"stride": 1, "padding": 0},
                   weights={"weight": Tensor.f32(np.ones((1, 1, 1, 1), np.float32)),
                            "bias": Tensor.f32(np.zeros(1, np.float32))}))
        prev = f"c{i}"
    g.add(Node("output", "Output", [prev]))
    g.validate()
    return g


class TestGenerateSensitivityList:
    def test_two_passes_per_image(self, mininet, mininet_calib, calib_images):
        ex = mq.Executor()
        generate_sensitivity_list(mininet, mininet_calib, calib_images, executor=ex)
        assert ex.passes == 2 * calib_images.shape[0]

    def test_covers_every_quantizable_node_once(self, mininet, mininet_calib, calib_images):
        sens, samples = generate_sensitivity_list(mininet, mininet_calib, calib_images)
        quantizable = {n.id for n in mininet.nodes if n.kind in mq.ir.QUANTIZABLE_KINDS}
        assert sorted(sens.ids) == sorted(quantizable)
        assert {s.node_id for s in samples} == quantizable

    @given(st.sampled_from(("mininet", "mini_resnet", "mini_mobilenet")), st.sampled_from(STAGES),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_group_adjusted_emits_every_ranked_id_once(self, all_archs, arch, stage, rnd):
        graph = mq.lower_to_stage(all_archs[arch], stage)
        ranked = list(quantizable_in_topo_order(graph))
        rnd.shuffle(ranked)
        adjusted = _group_adjusted(graph, ranked)
        assert len(adjusted) == len(ranked) and set(adjusted) == set(ranked)

    def test_group_members_contiguous(self, mininet, mininet_calib, calib_images):
        sens, _ = generate_sensitivity_list(mininet, mininet_calib, calib_images)
        for group in discover_fusion_groups(mininet):
            i = sens.ids.index(group.anchor)
            assert tuple(sens.ids[i:i + len(group.members)]) == group.members

    def test_heavy_tailed_layer_ranks_top(self, calib_images):
        pathological = scale_node_weights(mq.gen_synthetic("mininet", 42), "b6_conv", 50.0, stride=64)
        calib = profile_activations(pathological, calib_images)
        sens, samples = generate_sensitivity_list(pathological, calib, calib_images)
        by_id = {s.node_id: s for s in samples}
        assert by_id["b6_conv"].weight_sqnr == min(s.weight_sqnr for s in samples)
        position = sens.ids.index("b6_conv")
        assert position < 0.2 * len(sens.ids)

    def test_identical_layers_fall_back_to_topo(self, ):
        g = identity_chain(4)
        images = mq.gen_images(4, (1, 4, 4), 19)
        calib = profile_activations(g, images)
        sens, samples = generate_sensitivity_list(g, calib, images)
        assert sens.ids == ["c0", "c1", "c2", "c3"]
        # exact symmetry: identical weight metrics, zero deltas everywhere
        assert len({s.weight_sqnr for s in samples}) == 1
        assert all(s.act_delta == 0.0 for s in samples)

    def test_deterministic_across_runs(self, mininet, mininet_calib, calib_images, tmp_path):
        files = []
        for i in range(3):
            sens, _ = generate_sensitivity_list(mininet, mininet_calib, calib_images)
            sens.save(tmp_path / f"s{i}.txt")
            files.append((tmp_path / f"s{i}.txt").read_bytes())
        assert files[0] == files[1] == files[2]

    def test_empty_batch_rejected(self, mininet, mininet_calib):
        with pytest.raises(EmptyImageBatch):
            generate_sensitivity_list(mininet, mininet_calib, np.zeros((0, 3, 16, 16), np.float32))

    def test_list_file_round_trip(self, mininet, mininet_calib, calib_images, tmp_path):
        sens, _ = generate_sensitivity_list(mininet, mininet_calib, calib_images)
        sens.calib_digest = "ab" * 32
        sens.save(tmp_path / "sens.txt")
        back = SensitivityList.load(tmp_path / "sens.txt")
        assert back.ids == sens.ids
        assert back.method == "delta_mixup"
        assert back.calib_digest == sens.calib_digest

    def test_metrics_csv_layout(self, mininet, mininet_calib, calib_images, tmp_path):
        _, samples = generate_sensitivity_list(mininet, mininet_calib, calib_images)
        save_metrics_csv(samples, tmp_path / "metrics.csv")
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "id,layer_index,weight_sqnr,act_sqnr,weight_delta,act_delta,act_mse,weight_mse,act_cosine,act_kl"
        assert len(lines) == 1 + len(samples)
        assert all(line.endswith(",,") for line in lines[1:])  # no diagnostics asked for

    def test_diagnostics_change_no_other_metric(self, mininet, mininet_calib, calib_images):
        sens, plain = generate_sensitivity_list(mininet, mininet_calib, calib_images[:8])
        full, diag = generate_sensitivity_list(mininet, mininet_calib, calib_images[:8],
                                               diagnostics=True)
        assert sens.ids == full.ids
        assert all(s.act_cosine is None and s.act_kl is None for s in plain)
        assert all(s.act_cosine is not None and s.act_kl is not None for s in diag)
        for s, t in zip(plain, diag):
            t.act_cosine = t.act_kl = None
            assert s == t


class BatchRecorder(mq.Executor):
    """An executor that records the batch size of every FP32 pass."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def run_fp32(self, graph, inp, pause=None, observe=None):
        self.batches.append(inp.data.shape[0])
        return super().run_fp32(graph, inp, pause, observe)


class TestBatchInvariance:
    @pytest.mark.parametrize("arch", ["mininet", "mini_resnet", "mini_mobilenet"])
    def test_every_metric_equal_at_every_budget(self, all_archs, arch):
        """Batching never moves a metric: one image per pass, the default
        batches and all images in one pass give the same bits."""
        graph = all_archs[arch]
        images = mq.gen_images(7, tuple(graph.input_node.attrs["shape"]), 23)
        calib = profile_activations(graph, images)
        results = {}
        for name, budget in BUDGETS.items():
            ex = BatchRecorder()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(executor, "ACTIVATION_BUDGET_BYTES", budget)
                sens, samples = generate_sensitivity_list(graph, calib, images, executor=ex,
                                                          diagnostics=True)
            results[name] = (sens.ids, [repr(dataclasses.astuple(s)) for s in samples])
            assert sum(ex.batches) == images.shape[0]
            if name == "1 byte":
                assert ex.batches == [1] * images.shape[0]
            elif name == "1e9 bytes":
                assert ex.batches == [images.shape[0]]
        assert results["default"] == results["1 byte"] == results["1e9 bytes"]


def traced_sensitivity_list(graph, calib, images, diagnostics):
    """The trace-based sweep that generate_sensitivity_list streamed: each
    batch's FP32 pass and then its all-int8 pass keep traces of every
    quantizable node, through observers that dequantize int8 codes, which
    are scored after both passes, as float32. Ranking as
    generate_sensitivity_list ranks."""
    from mixquant.calibration import weight_qparams
    from mixquant.executor import batch_size, image_batches
    from mixquant.metrics import SENTINEL_DB, cosine_similarity, kl_divergence, row_powers, sqnr_db, sqnr_delta
    from mixquant.quantizer import dequantize, quantize_affine
    from mixquant.sensitivity import MetricSample

    ex = mq.Executor()
    qids = quantizable_in_topo_order(graph)
    q_graph = apply_mixed_precision(graph, [], calib)
    n_images = images.shape[0]
    act_sqnr_acc = {nid: 0.0 for nid in qids}
    act_mse_acc = {nid: 0.0 for nid in qids}
    act_cos_acc = {nid: 0.0 for nid in qids}
    act_kl_acc = {nid: 0.0 for nid in qids}
    for batch in image_batches(images, batch_size(graph, keep=qids), batch_size(q_graph, keep=qids)):
        _, ref_trace = observed(ex.run_fp32, graph, batch, qids)
        _, q_trace = observed(ex.run_quantized, q_graph, batch, qids)
        for nid in qids:
            ref, got = ref_trace[nid].data, q_trace[nid].data
            signal, noise = row_powers(ref, got)
            for p_signal, p_noise in zip(signal.tolist(), noise.tolist()):
                act_sqnr_acc[nid] += sqnr_db(p_signal, p_noise)
                act_mse_acc[nid] += p_noise
            if diagnostics:
                for j in range(batch.shape[0]):
                    act_cos_acc[nid] += cosine_similarity(ref[j:j + 1], got[j:j + 1])
                    act_kl_acc[nid] += kl_divergence(ref[j:j + 1], got[j:j + 1])

    samples = []
    for layer_index, nid in enumerate(qids):
        node = graph.node(nid)
        if node.kind in WEIGHTED_KINDS:
            w = node.weights["weight"]
            w_hat = dequantize(quantize_affine(w, weight_qparams(w)))
            signal, noise = row_powers(w, w_hat, rows=1)
            w_sqnr, w_mse = sqnr_db(float(signal[0]), float(noise[0])), float(noise[0])
        else:
            w_sqnr, w_mse = SENTINEL_DB, 0.0
        samples.append(MetricSample(
            node_id=nid, layer_index=layer_index, weight_sqnr=w_sqnr, weight_mse=w_mse,
            act_sqnr=act_sqnr_acc[nid] / n_images, act_mse=act_mse_acc[nid] / n_images,
            act_cosine=act_cos_acc[nid] / n_images if diagnostics else None,
            act_kl=act_kl_acc[nid] / n_images if diagnostics else None))
    weighted = [s for s in samples if graph.node(s.node_id).kind in WEIGHTED_KINDS]
    for s, delta in zip(weighted, sqnr_delta([(s.layer_index, s.weight_sqnr) for s in weighted])):
        s.weight_delta = delta
    for s, delta in zip(samples, sqnr_delta([(s.layer_index, s.act_sqnr) for s in samples])):
        s.act_delta = delta
    ranked = rank_layers_by_sensitivity(
        {s.node_id: s.weight_delta for s in samples}, {s.node_id: s.act_delta for s in samples},
        {s.node_id: s.act_mse for s in samples}, float(np.mean([s.act_mse for s in samples])))
    return _group_adjusted(graph, ranked), samples


class TestStreamedScoring:
    @pytest.mark.parametrize("arch", ["mininet", "mini_resnet", "mini_mobilenet"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_equals_the_trace_based_sweep(self, all_archs, arch, stage):
        """Scoring each layer as the FP32 pass makes it, against the codes
        that the int8 pass kept, gives the trace-based sweep's list and every
        MetricSample field bit for bit, at every budget, with and without
        diagnostics."""
        from mixquant.fusion import lower_to_stage

        graph = lower_to_stage(all_archs[arch], stage)
        images = mq.gen_images(5, tuple(graph.input_node.attrs["shape"]), 29)
        calib = profile_activations(all_archs[arch], images)
        for diagnostics in (False, True):
            ids, want = traced_sensitivity_list(graph, calib, images, diagnostics)
            for budget in BUDGETS.values():
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(executor, "ACTIVATION_BUDGET_BYTES", budget)
                    sens, got = generate_sensitivity_list(graph, calib, images, diagnostics=diagnostics)
                assert sens.ids == ids
                assert [repr(dataclasses.astuple(s)) for s in got] == [repr(dataclasses.astuple(s)) for s in want]


def top1_case(arch):
    """A seed-3 model, 24 images, its teacher labels and a profile of the
    images at a tenth of their range."""
    graph = mq.gen_synthetic(arch, 3)
    images = mq.gen_images(24, tuple(graph.input_node.attrs["shape"]), 31)
    return graph, images, profile_activations(graph, images[:4] * 0.1), reference_pass(graph, images).preds


def per_group_top1(graph, images, labels, calib):
    """top1 as one full pass of each group's graph: the reference ordering."""
    groups = discover_fusion_groups(graph)
    all_q = quantizable_in_topo_order(graph)
    base = top1_accuracy(reference_pass(graph, images).preds, labels)
    drops = [base - top1_accuracy(reference_pass(apply_mixed_precision(
        graph, [n for n in all_q if n not in g.members], calib), images).preds, labels) for g in groups]
    ranked = sorted(range(len(groups)), key=lambda i: (-drops[i], i))
    return [m for i in ranked for m in groups[i].members]


class TestBaselines:
    def test_in_order_is_group_topo(self, mininet):
        sens = baseline_order(mininet, "in_order")
        expected = [m for g in discover_fusion_groups(mininet) for m in g.members]
        assert sens.ids == expected
        assert sens.method == "in_order"

    def test_weight_sqnr_ranks_pathology_first(self, calib_images):
        pathological = scale_node_weights(mq.gen_synthetic("mininet", 42), "b6_conv", 50.0, stride=64)
        sens = baseline_order(pathological, "weight_sqnr")
        assert sens.ids[0] == "b6_conv"

    def test_top1_needs_labels(self, mininet, calib_images, mininet_calib):
        with pytest.raises(MissingLabels):
            baseline_order(mininet, "top1", images=calib_images, calib=mininet_calib)

    def test_top1_pass_count_and_shape(self, mininet, mininet_calib, monkeypatch):
        images = mq.gen_images(6, (3, 16, 16), 33)
        labels = reference_pass(mininet, images).preds
        groups = discover_fusion_groups(mininet)
        for budget in (executor.ACTIVATION_BUDGET_BYTES, 1):
            monkeypatch.setattr(executor, "ACTIVATION_BUDGET_BYTES", budget)
            ex = mq.Executor()
            sens = baseline_order(mininet, "top1", images=images, labels=labels,
                                  calib=mininet_calib, executor=ex, top1_budget=6)
            assert ex.passes == (len(groups) + 1) * images.shape[0]
            assert sorted(sens.ids) == sorted(m for g in groups for m in g.members)

    @pytest.mark.parametrize("arch", ["mininet", "mini_resnet", "mini_mobilenet"])
    def test_top1_equals_per_group_loop(self, arch, monkeypatch):
        """Resuming each group from the paused FP32 pass ranks exactly as one
        full pass per group graph did, at every budget. A calibration on
        dimmed images clips hard, so the group accuracies differ."""
        graph, images, calib, labels = top1_case(arch)
        want = per_group_top1(graph, images, labels, calib)
        assert want != baseline_order(graph, "in_order").ids
        for budget in BUDGETS.values():
            monkeypatch.setattr(executor, "ACTIVATION_BUDGET_BYTES", budget)
            sens = baseline_order(graph, "top1", images=images, labels=labels, calib=calib)
            assert sens.ids == want, budget

    @pytest.mark.parametrize("arch", ["mininet", "mini_resnet", "mini_mobilenet"])
    def test_resumed_logits_equal_a_full_pass(self, arch):
        """Each group's graph, resumed at its anchor from the FP32 values live
        there, runs no node that the FP32 pass ran before the anchor, and
        gives the logits of a full run_quantized pass bit for bit."""
        graph, images, calib, _ = top1_case(arch)
        batch = Tensor.f32(images[:5])
        all_q = quantizable_in_topo_order(graph)
        resumed, full = {}, {}
        qgs = {g.anchor: apply_mixed_precision(graph, [n for n in all_q if n not in g.members], calib)
               for g in discover_fusion_groups(graph)}
        ex = mq.Executor()

        def resume(anchor):
            def run(values):
                assert set(values) == set(executor.live_before(graph, anchor))
                node = logits_node_id(qgs[anchor])
                resumed[anchor] = observed(ex.run_quantized, qgs[anchor], batch, [node], given=values)[1][node]
            return run

        ex.run_fp32(graph, batch, pause={a: resume(a) for a in qgs})
        assert ex.passes == (len(qgs) + 1) * 5
        steps = [nid for nid, _ in executor._program(graph).plan(())]
        for anchor, qg in qgs.items():
            ahead = set(steps[:steps.index(anchor)])
            plan = executor._program(qg).plan(executor.live_before(graph, anchor))
            assert ahead.isdisjoint(nid for nid, _ in plan)
            node = logits_node_id(qg)
            full[anchor] = observed(mq.Executor().run_quantized, qg, batch, [node])[1][node]
            assert np.array_equal(resumed[anchor].data, full[anchor].data), anchor


    def test_unknown_method(self, mininet):
        with pytest.raises(ValueError):
            baseline_order(mininet, "hessian")


class TestScoringPass:
    """reference_pass scores any graph; top1_accuracy and mean_logit_sqnr
    read its outputs."""

    @staticmethod
    def count_runs(monkeypatch):
        calls = {"run_fp32": 0, "run_quantized": 0}
        for name in calls:
            original = getattr(mq.Executor, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(mq.Executor, name, counted)
        return calls

    def test_executor_method_follows_precision(self, mininet, mininet_calib, eval_images,
                                               monkeypatch):
        quantizable = [n.id for n in mininet.nodes if n.kind in mq.ir.QUANTIZABLE_KINDS]
        graphs = {
            "fp32": (mininet, "run_fp32"),
            "mixed": (mq.apply_mixed_precision(mininet, ["b2_conv"], mininet_calib), "run_quantized"),
            "all kept": (mq.apply_mixed_precision(mininet, quantizable, mininet_calib), "run_fp32"),
        }
        calls = self.count_runs(monkeypatch)
        for name, (graph, method) in graphs.items():
            calls.update(dict.fromkeys(calls, 0))
            reference_pass(graph, eval_images[:4])
            assert calls[method] >= 1, name
            assert sum(calls.values()) == calls[method], name

    @pytest.mark.parametrize("keep", [[], ["b2_conv"]])
    def test_quantized_logits_are_the_dequantized_fc_codes(self, mininet, mininet_calib,
                                                           eval_images, keep):
        qg = mq.apply_mixed_precision(mininet, keep, mininet_calib)
        images = eval_images[:5]
        ref = reference_pass(qg, images)
        out, trace = observed(mq.Executor().run_quantized, qg, Tensor.f32(images), ["fc"])
        assert qg.node("fc").precision == 8
        assert qg.node(ref.node).kind == "Dequantize" and qg.node(ref.node).inputs == ["fc"]
        assert ref.logits.dtype == np.float32
        assert np.array_equal(ref.logits, trace["fc"].data)
        assert ref.preds == [int(k) for k in np.argmax(out.data, axis=1)]

    def test_logits_left_as_codes_come_dequantized(self):
        """A loaded model's Output may read int8 codes; its logits are those
        codes dequantized, and its predictions the argmax of the codes."""
        qp = mq.QuantParams(0.05, 3)
        g = mq.Graph("codes_out")
        g.add(mq.Node("input", "Input", attrs={"shape": [1, 1, 6]}))
        g.add(mq.Node("q", "Quantize", ["input"], attrs={"out_qparams": qp}))
        g.add(mq.Node("output", "Output", ["q"]))
        images = mq.gen_images(5, (1, 1, 6), 41)
        ref = reference_pass(g, images)
        codes = mq.quantize_affine(images, qp)
        assert ref.node == "q" and ref.logits.dtype == np.float32
        assert np.array_equal(ref.logits, mq.dequantize(codes).data)
        assert ref.preds == [int(k) for k in np.argmax(codes.data.reshape(5, -1), axis=1)]

    def test_fc_kept_at_fp32_is_the_logits_node(self, mininet, mininet_calib, eval_images):
        qg = mq.apply_mixed_precision(mininet, ["fc"], mininet_calib)
        assert reference_pass(qg, eval_images[:2]).node == "fc"

    def test_logit_sqnr_sums_left_to_right(self):
        rng = np.random.default_rng(0)
        ref = rng.standard_normal((16, 10)).astype(np.float32)
        noise = rng.standard_normal((16, 10)) * 10.0 ** rng.uniform(-4, 0, (16, 1))
        got = (ref + noise).astype(np.float32)
        per_image = [mq.sqnr(ref[j:j + 1], got[j:j + 1]) for j in range(16)]
        total = 0.0
        for value in per_image:
            total += value
        assert math.fsum(per_image) != total  # compensated summation would move the bits
        assert mean_logit_sqnr(ref, got) == total / 16

    def test_top1_accuracy(self):
        assert top1_accuracy([1, 2, 3, 4], [1, 0, 3, 0]) == 0.5
        with pytest.raises(MissingLabels):
            top1_accuracy([1, 2, 3], [1, 2])

    def test_top1_accuracy_rejects_no_images(self):
        with pytest.raises(EmptyImageBatch):
            top1_accuracy([], [])
        with pytest.raises(MissingLabels):  # the count check comes first
            top1_accuracy([], [1])

    def test_logit_sqnr_rejects_no_rows(self):
        with pytest.raises(EmptyImageBatch):
            mean_logit_sqnr(np.zeros((0, 10), np.float32), np.zeros((0, 10), np.float32))

    def test_logit_sqnr_rejects_row_count_mismatch(self):
        ref = np.ones((2, 10), np.float32)
        with pytest.raises(ShapeMismatch):
            mean_logit_sqnr(ref, np.ones((3, 10), np.float32))

    def test_no_images_is_rejected_before_any_pass(self, mininet, mininet_calib, eval_images,
                                                   monkeypatch):
        calls = self.count_runs(monkeypatch)
        empty = eval_images[:0]
        assert empty.shape == (0, *eval_images.shape[1:])
        for graph in (mininet, mq.apply_mixed_precision(mininet, ["b2_conv"], mininet_calib)):
            with pytest.raises(EmptyImageBatch):
                reference_pass(graph, empty)
        assert calls == {"run_fp32": 0, "run_quantized": 0}


class TestDualPathology:
    def test_mse_mixup_beats_weight_only_ranking(self, calib_images):
        """A layer with terrible weight SQNR but little output impact must not
        bury the layer that actually damages activations."""
        g = scale_node_weights(mq.gen_synthetic("mininet", 42), "fc", 50.0, stride=64)
        g = scale_node_weights(g, "b3_conv", 50.0, stride=10 ** 9)  # single huge element
        calib = profile_activations(g, calib_images)
        ws = baseline_order(g, "weight_sqnr")
        ours, samples = generate_sensitivity_list(g, calib, calib_images)
        by_id = {s.node_id: s for s in samples}
        # decoy wins on weight SQNR alone, fc wins on activation damage
        assert by_id["b3_conv"].weight_sqnr < by_id["fc"].weight_sqnr
        assert ws.ids[0] == "b3_conv"
        assert by_id["fc"].act_mse > by_id["b3_conv"].act_mse
        assert ours.ids.index("fc") <= 3  # both pathologies at the head
        assert ours.ids.index("b3_conv") <= 3
