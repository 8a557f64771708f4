import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mixquant as mq
from mixquant.calibration import profile_activations
from mixquant.errors import MissingCalibration, UnknownNodeInList
from mixquant.ir import Graph, Node, QuantParams, Tensor, dce_cse
from mixquant.model_io import Lcg
from mixquant.quantizer import (
    count_qdq,
    expand_to_groups,
    load_node_list,
    precision_config,
    save_node_list,
    save_precision_config,
    select_dequant_set,
)

from conftest import graph_signature


def chain_model():
    """input -> c1 -> r1 -> c2 -> output (c1+r1 form a fusion group)."""
    rng = Lcg(77)
    g = Graph("chain")
    g.add(Node("input", "Input", attrs={"shape": [2, 4, 4]}))
    g.add(Node("c1", "Conv2d", ["input"], attrs={"stride": 1, "padding": 1},
               weights={"weight": Tensor.f32(rng.uniform(-0.5, 0.5, (2, 2, 3, 3))),
                        "bias": Tensor.f32(rng.uniform(-0.1, 0.1, (2,)))}))
    g.add(Node("r1", "ReLU", ["c1"]))
    g.add(Node("c2", "Conv2d", ["r1"], attrs={"stride": 1, "padding": 1},
               weights={"weight": Tensor.f32(rng.uniform(-0.5, 0.5, (2, 2, 3, 3))),
                        "bias": Tensor.f32(rng.uniform(-0.1, 0.1, (2,)))}))
    g.add(Node("output", "Output", ["c2"]))
    g.validate()
    return g


@pytest.fixture(scope="module")
def chain():
    return chain_model()


@pytest.fixture(scope="module")
def chain_images():
    return mq.gen_images(8, (2, 4, 4), 13)


@pytest.fixture(scope="module")
def chain_calib(chain, chain_images):
    return profile_activations(chain, chain_images)


class TestQuantizeDequantize:
    def test_zero_maps_to_zero_point(self):
        q = mq.quantize_affine(np.array([0.0], np.float32), QuantParams(8, 1.0, 0))
        assert q.data[0] == 0

    def test_symmetric_half_rounds_away(self):
        qp = QuantParams(8, 1.0 / 127.0, 0, symmetric=True)
        q = mq.quantize_affine(np.array([-1.0, 0.5, 1.0], np.float32), qp)
        assert list(q.data) == [-127, 64, 127]

    def test_saturation(self):
        q = mq.quantize_affine(np.array([10.0], np.float32), QuantParams(8, 1.0 / 127.0, 0))
        assert q.data[0] == 127

    def test_dequantize_value(self):
        qp = QuantParams(8, 1.0 / 127.0, 0)
        x = mq.dequantize(Tensor.i8(np.array([64], np.int8), qp))
        assert np.isclose(x.data[0], 0.50394, atol=5e-6)

    def test_zero_point_dequantizes_to_zero(self):
        qp = QuantParams(8, 0.037, -3)
        assert mq.dequantize(Tensor.i8(np.array([-3], np.int8), qp)).data[0] == 0.0

    @given(st.floats(1e-4, 10.0), st.integers(-128, 127),
           st.lists(st.floats(-500, 500, width=32), min_size=1, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_within_half_step(self, step, zp, values):
        qp = QuantParams(8, step, zp)
        x = np.asarray(values, np.float32)
        lo, hi = (qp.qmin - zp) * step, (qp.qmax - zp) * step
        x = np.clip(x, lo, hi).astype(np.float32)
        back = mq.dequantize(mq.quantize_affine(x, qp)).data.astype(np.float64)
        assert np.abs(back - x).max() <= step / 2 * (1 + 1e-6) + 1e-12


class TestApplyMixedPrecision:
    def test_chain_partial(self, chain, chain_calib):
        qg = mq.apply_mixed_precision(chain, ["c2"], chain_calib)
        assert qg.node("c1").precision == 8
        assert qg.node("r1").precision == 8
        assert qg.node("c2").precision == 32
        quantizes = [n for n in qg.nodes if n.kind == "Quantize"]
        dequantizes = [n for n in qg.nodes if n.kind == "Dequantize"]
        assert len(quantizes) == 1 and quantizes[0].inputs == ["input"]
        assert len(dequantizes) == 1
        assert qg.node("c2").inputs == [dequantizes[0].id]
        assert count_qdq(qg) == 2

    def test_keep_all_is_identity_with_zero_qdq(self, chain, chain_calib, chain_images):
        keep_all = [n.id for n in chain.nodes if n.kind in ("Conv2d", "ReLU")]
        qg = mq.apply_mixed_precision(chain, keep_all, chain_calib)
        assert count_qdq(qg) == 0
        ex = mq.Executor()
        x = Tensor.f32(chain_images[0:1])
        ref, _ = ex.run_fp32(chain, x)
        got, _ = ex.run_quantized(qg, x)
        assert np.array_equal(ref.data, got.data)

    def test_fully_int8_mininet_boundaries(self, mininet, mininet_calib):
        qg = mq.apply_mixed_precision(mininet, [], mininet_calib)
        assert count_qdq(qg) == 2
        quantize = next(n for n in qg.nodes if n.kind == "Quantize")
        dequantize = next(n for n in qg.nodes if n.kind == "Dequantize")
        assert quantize.inputs == ["input"]
        assert qg.node("softmax").inputs == [dequantize.id]
        for n in qg.nodes:
            if n.kind in ("Softmax", "Input", "Output"):
                assert n.precision == 32

    def test_unknown_node_in_list(self, chain, chain_calib):
        with pytest.raises(UnknownNodeInList):
            mq.apply_mixed_precision(chain, ["ghost"], chain_calib)

    def test_non_quantizable_node_in_list(self, mininet, mininet_calib):
        with pytest.raises(UnknownNodeInList):
            mq.apply_mixed_precision(mininet, ["softmax"], mininet_calib)

    def test_duplicate_list_entries(self, chain, chain_calib):
        with pytest.raises(ValueError):
            mq.apply_mixed_precision(chain, ["c2", "c2"], chain_calib)

    def test_missing_calibration(self, chain, chain_images):
        partial = profile_activations(chain, chain_images)
        del partial.profiles["c1"]
        with pytest.raises(MissingCalibration):
            mq.apply_mixed_precision(chain, [], partial)

    def test_monotone_int8_count(self, mininet, mininet_calib):
        groups = mq.discover_fusion_groups(mininet)
        counts = []
        keep: list[str] = []
        for g in [None] + groups:
            if g is not None:
                keep.extend(g.members)
            qg = mq.apply_mixed_precision(mininet, list(keep), mininet_calib)
            counts.append(sum(1 for n in qg.nodes if n.precision == 8))
        assert counts == sorted(counts, reverse=True)

    def test_int8_count_matches_arithmetic(self, mininet, mininet_calib):
        quantizable = {n.id for n in mininet.nodes
                       if n.kind in mq.ir.QUANTIZABLE_KINDS}
        keep = expand_to_groups(mininet, ["b3_conv", "fc"])
        qg = mq.apply_mixed_precision(mininet, keep, mininet_calib)
        int8 = sum(1 for n in qg.nodes if n.precision == 8)
        assert int8 == len(quantizable) - len(keep)

    def test_kept_group_is_bit_exact_fp32(self, chain, chain_calib, chain_images):
        """c1's group is {c1, r1}; with all its transitive producers FP32, its
        captured activations equal the pure FP32 run exactly."""
        qg = mq.apply_mixed_precision(chain, ["c1"], chain_calib)
        assert qg.node("c1").precision == 32 and qg.node("r1").precision == 32
        ex = mq.Executor()
        x = Tensor.f32(chain_images[0:1])
        _, ref = ex.run_fp32(chain, x, capture=True)
        _, got = ex.run_quantized(qg, x, capture=True)
        assert np.array_equal(ref.outputs["c1"].data, got.outputs["c1"].data)
        assert np.array_equal(ref.outputs["r1"].data, got.outputs["r1"].data)

    def test_no_redundant_adjacent_qdq_pairs(self, mininet, mininet_calib):
        for keep_anchor in ([], ["b3_conv"], ["b4_conv"], ["b3_conv", "b5_conv"]):
            keep = expand_to_groups(mininet, keep_anchor)
            qg = mq.apply_mixed_precision(mininet, keep, mininet_calib)
            for n in qg.nodes:
                if n.kind == "Quantize":
                    producer = qg.node(n.inputs[0])
                    assert not (producer.kind == "Dequantize"
                                and producer.attrs["qparams"] == n.attrs["qparams"])


class TestRequantPair:
    def test_mismatched_int8_scales_get_dq_q_pair(self, chain_calib):
        """When adjacent int8 regions disagree on scale, the boundary becomes an
        explicit Dequantize -> Quantize pair (white-box: the pipeline itself
        always derives matching scales from one calibration profile)."""
        from mixquant.quantizer import _insert_adapters
        from mixquant.ir import dce_cse as cleanup

        qa = QuantParams(8, 0.02, 0)
        qb = QuantParams(8, 0.015, -7)
        wqp = QuantParams(8, 0.01, 0, symmetric=True)
        g = Graph("requant")
        g.add(Node("input", "Input", attrs={"shape": [1, 2, 2]}))
        g.add(Node("c1", "Conv2d", ["input"],
                   attrs={"stride": 1, "padding": 0, "in_qparams": [qa], "out_qparams": qa},
                   weights={"weight": Tensor.i8(np.full((1, 1, 1, 1), 50, np.int8), wqp)},
                   precision=8))
        g.add(Node("c2", "Conv2d", ["c1"],
                   attrs={"stride": 1, "padding": 0, "in_qparams": [qb], "out_qparams": qb},
                   weights={"weight": Tensor.i8(np.full((1, 1, 1, 1), 50, np.int8), wqp)},
                   precision=8))
        g.add(Node("output", "Output", ["c2"]))
        out = cleanup(_insert_adapters(g, chain_calib))
        kinds = {n.kind for n in qg_path(out, "c1", "c2")}
        assert kinds == {"Dequantize", "Quantize"}
        out.validate()
        # input also gains a Quantize, the Output side a Dequantize
        y, _ = mq.Executor().run_quantized(out, Tensor.f32(np.full((1, 1, 2, 2), 0.4, np.float32)))
        assert y.dtype == "f32"
        assert count_qdq(out) == 4


def qg_path(graph, src, dst):
    """Nodes strictly between src and dst along single-consumer edges."""
    path = []
    cur = graph.node(dst).inputs[0]
    while cur != src:
        path.append(graph.node(cur))
        cur = graph.node(cur).inputs[0]
    return path


class TestDqQPeephole:
    def test_cancel_exact_pair(self):
        qp = QuantParams(8, 0.05, 4)
        g = Graph("peep")
        g.add(Node("input", "Input", attrs={"shape": [1, 2, 2]}))
        g.add(Node("q1", "Quantize", ["input"], attrs={"qparams": qp}))
        g.add(Node("d1", "Dequantize", ["q1"], attrs={"qparams": qp}))
        g.add(Node("q2", "Quantize", ["d1"], attrs={"qparams": qp}))
        g.add(Node("d2", "Dequantize", ["q2"], attrs={"qparams": qp}))
        g.add(Node("output", "Output", ["d2"]))
        out = dce_cse(g)
        assert count_qdq(out) == 2
        x = Tensor.f32(np.array([[[[0.3, -0.1], [5.0, 0.0]]]], np.float32))
        ex = mq.Executor()
        ref, _ = ex.run_quantized(g, x)
        got, _ = ex.run_quantized(out, x)
        assert np.array_equal(ref.data, got.data)

    def test_different_params_not_cancelled(self):
        g = Graph("keep")
        g.add(Node("input", "Input", attrs={"shape": [1, 2, 2]}))
        g.add(Node("q1", "Quantize", ["input"], attrs={"qparams": QuantParams(8, 0.05, 4)}))
        g.add(Node("d1", "Dequantize", ["q1"], attrs={"qparams": QuantParams(8, 0.05, 4)}))
        g.add(Node("q2", "Quantize", ["d1"], attrs={"qparams": QuantParams(8, 0.02, 0)}))
        g.add(Node("d2", "Dequantize", ["q2"], attrs={"qparams": QuantParams(8, 0.02, 0)}))
        g.add(Node("output", "Output", ["d2"]))
        assert count_qdq(dce_cse(g)) == 4

    def test_pair_on_codes_of_other_params_not_cancelled(self):
        """Quantize(step 0.05, zp 4) clamps -9.0 to code -128; the symmetric
        Dequantize -> Quantize pair after it clamps that to -127, so it is no
        identity and the cleanup must keep it: -6.35, not -6.4."""
        sym = QuantParams(8, 0.05, 0, symmetric=True)
        g = Graph("mismatch")
        g.add(Node("input", "Input", attrs={"shape": [1, 1, 1]}))
        g.add(Node("q1", "Quantize", ["input"], attrs={"qparams": QuantParams(8, 0.05, 4)}))
        g.add(Node("d1", "Dequantize", ["q1"], attrs={"qparams": sym}))
        g.add(Node("q2", "Quantize", ["d1"], attrs={"qparams": sym}))
        g.add(Node("d2", "Dequantize", ["q2"], attrs={"qparams": sym}))
        g.add(Node("output", "Output", ["d2"]))
        out = dce_cse(g)
        assert count_qdq(out) == 4
        x = Tensor.f32(np.full((1, 1, 1, 1), -9.0, np.float32))
        ex = mq.Executor()
        for graph in (g, out):
            assert ex.run_quantized(graph, x)[0].data.item() == pytest.approx(-6.35)


class TestSelectDequantSet:
    def test_target_100_empty(self, mininet):
        sens = mq.baseline_order(mininet, "in_order")
        assert select_dequant_set(sens, mininet, 100.0) == []

    def test_target_0_everything(self, mininet):
        sens = mq.baseline_order(mininet, "in_order")
        keep = select_dequant_set(sens, mininet, 0.0)
        quantizable = [n.id for n in mininet.nodes if n.kind in mq.ir.QUANTIZABLE_KINDS]
        assert sorted(keep) == sorted(quantizable)

    def test_equal_mac_thirds(self):
        rng = Lcg(5)
        g = Graph("three")
        g.add(Node("input", "Input", attrs={"shape": [2, 4, 4]}))
        prev = "input"
        for i in range(3):
            g.add(Node(f"c{i}", "Conv2d", [prev], attrs={"stride": 1, "padding": 1},
                       weights={"weight": Tensor.f32(rng.uniform(-1, 1, (2, 2, 3, 3))),
                                "bias": Tensor.f32(np.zeros(2, np.float32))}))
            prev = f"c{i}"
        g.add(Node("output", "Output", [prev]))
        order = ["c1", "c0", "c2"]  # some sensitivity order
        keep = select_dequant_set(order, g, 66.7)
        assert keep == ["c1"]  # exactly the top-1 group

    def test_count_qdq_on_plain_graph_is_zero(self, mininet):
        assert count_qdq(mininet) == 0


class TestConfigFiles:
    def test_node_list_round_trip(self, tmp_path):
        save_node_list(["a", "b", "c"], tmp_path / "list.txt")
        assert load_node_list(tmp_path / "list.txt") == ["a", "b", "c"]
        assert (tmp_path / "list.txt").read_text() == "a\nb\nc\n"

    def test_precision_config_round_trip(self, mininet, mininet_calib, tmp_path):
        qg = mq.apply_mixed_precision(mininet, ["b3_conv"], mininet_calib)
        config = precision_config(qg)
        save_precision_config(config, tmp_path / "precision.json")
        assert json.loads((tmp_path / "precision.json").read_text()) == {"layers": config}
        assert config["b3_conv"] == 32 and config["b5_conv"] == 8


# ---------------------------------------------------------------------------
# properties of the transform on every arch at both IR stages

ARCHS = ("mininet", "mini_resnet", "mini_mobilenet")


@pytest.fixture(scope="module")
def staged(all_archs):
    """arch -> stage -> (graph, calibration profile of the unfused graph)."""
    from mixquant.fusion import STAGES, lower_to_stage

    out = {}
    for name, g in all_archs.items():
        shape = tuple(int(d) for d in g.input_node.attrs["shape"])
        calib = profile_activations(g, mq.gen_images(4, shape, 5))
        out[name] = {stage: (lower_to_stage(g, stage), calib) for stage in STAGES}
    return out


def quantizable_ids(graph):
    return [n.id for n in graph.nodes if n.kind in mq.ir.QUANTIZABLE_KINDS]


RANDOM_QPARAMS = (QuantParams(8, 0.05, 4), QuantParams(8, 0.02, 0, symmetric=True))


def random_qdq_graph(steps, out_pick: int) -> Graph:
    """A graph on (1, 2, 2) tensors built from (kind, pick, pick, qparams index)
    steps. A pick counts back from the newest node of the type the step
    reads, so 0 chains onto the newest one. Quantize reads a float node,
    Dequantize an int8 node, ReLU and Add float nodes; the Output reads a
    float node. Index 2 gives a Dequantize its input's qparams, 0 and 1 pick
    from RANDOM_QPARAMS (a Quantize takes the index mod 2), so a Dequantize
    may read codes made with other qparams. Nodes nothing reads stay in."""
    g = Graph("random")
    g.add(Node("input", "Input", attrs={"shape": [1, 2, 2]}))
    floats, codes = ["input"], []
    qparams = {}
    for i, (kind, a, b, k) in enumerate(steps):
        nid = f"n{i}"
        if kind == "Dequantize" and codes:
            src = codes[-1 - a % len(codes)]
            qp = qparams[src] if k == 2 else RANDOM_QPARAMS[k]
            g.add(Node(nid, kind, [src], attrs={"qparams": qp}))
        elif kind in ("Quantize", "Dequantize"):
            qparams[nid] = RANDOM_QPARAMS[k % 2]
            g.add(Node(nid, "Quantize", [floats[-1 - a % len(floats)]],
                       attrs={"qparams": qparams[nid]}))
            codes.append(nid)
            continue
        else:
            picks = (a, b) if kind == "Add" else (a,)
            g.add(Node(nid, kind, [floats[-1 - p % len(floats)] for p in picks]))
        floats.append(nid)
    g.add(Node("output", "Output", [floats[-1 - out_pick % len(floats)]]))
    return g


class TestTransformProperties:
    @given(st.sampled_from(ARCHS), st.sampled_from(["unfused", "fused"]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_dce_cse_idempotent_on_mixed_graphs(self, staged, arch, stage, data):
        g, calib = staged[arch][stage]
        keep = data.draw(st.lists(st.sampled_from(quantizable_ids(g)), unique=True))
        qg = mq.apply_mixed_precision(g, keep, calib)
        once = dce_cse(qg)
        assert graph_signature(once) == graph_signature(qg)
        assert graph_signature(dce_cse(once)) == graph_signature(once)

    @given(st.lists(st.tuples(st.sampled_from(["Quantize", "Dequantize", "ReLU", "Add"]),
                              st.integers(0, 5), st.integers(0, 5), st.integers(0, 2)),
                    max_size=12),
           st.integers(0, 5))
    # a back-to-back Q/DQ chain with equal qparams, then one with unequal ones
    @example([("Quantize", 0, 0, 0), ("Dequantize", 0, 0, 2)] * 2, 0)
    @example([("Quantize", 0, 0, 0), ("Dequantize", 0, 0, 2),
              ("Quantize", 0, 0, 1), ("Dequantize", 0, 0, 2)], 0)
    # a Dequantize -> Quantize pair with equal qparams on codes made with others
    @example([("Quantize", 0, 0, 0), ("Dequantize", 0, 0, 1),
              ("Quantize", 0, 0, 1), ("Dequantize", 0, 0, 2)], 0)
    # two Quantize nodes on one producer, both read
    @example([("Quantize", 0, 0, 0), ("Quantize", 1, 0, 0), ("Dequantize", 0, 0, 2),
              ("Dequantize", 1, 0, 2), ("Add", 0, 1, 0)], 0)
    # dead branches: a ReLU and a Q/DQ pair that the Output does not read
    @example([("ReLU", 0, 0, 0), ("Quantize", 0, 0, 0), ("Dequantize", 0, 0, 2),
              ("ReLU", 3, 0, 0)], 0)
    @settings(max_examples=200, deadline=None)
    def test_dce_cse_idempotent_on_random_graphs(self, steps, out_pick):
        """Graphs apply_mixed_precision cannot produce: one cleanup reaches
        the fixpoint, leaves no dead node, no Quantize(p) fed by Dequantize(p)
        of codes made with p and no two equal nodes, and the graph computes
        the same bits."""
        g = random_qdq_graph(steps, out_pick)
        once = dce_cse(g)
        assert graph_signature(dce_cse(once)) == graph_signature(once)
        read = {src for n in once.nodes for src in n.inputs}
        assert all(n.id in read for n in once.nodes if n.kind not in ("Input", "Output"))
        for n in once.nodes:
            if n.kind == "Quantize":
                src = once.node(n.inputs[0])
                assert not (src.kind == "Dequantize" and src.attrs["qparams"] == n.attrs["qparams"]
                            == once.node(src.inputs[0]).attrs["qparams"])
        signatures = [graph_signature(Graph("one", [n]))[0][1:] for n in once.nodes]
        assert len(set(signatures)) == len(signatures)
        x = Tensor.f32(np.array([[[[0.3, -0.1], [5.0, -7.0]]]], np.float32))
        ex = mq.Executor()
        assert np.array_equal(ex.run_quantized(g, x)[0].data, ex.run_quantized(once, x)[0].data)

    @given(st.sampled_from(ARCHS), st.sampled_from(["unfused", "fused"]), st.data(),
           st.floats(0, 100), st.floats(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_higher_target_keeps_a_subset(self, staged, arch, stage, data, a, b):
        g, _ = staged[arch][stage]
        order = data.draw(st.permutations(quantizable_ids(g)))
        low, high = min(a, b), max(a, b)
        assert set(select_dequant_set(order, g, high)) <= set(select_dequant_set(order, g, low))
