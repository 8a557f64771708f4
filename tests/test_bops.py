import importlib

import numpy as np
import pytest

import mixquant as mq
from mixquant.bops import bops, count_macs, macs_by_node
from mixquant.errors import IncompleteConfig, UnresolvedShape
from mixquant.ir import Graph, Node, Tensor, infer_shapes
from mixquant.model_io import Lcg
from mixquant.quantizer import select_dequant_set


def mac_graph(conv_channels=(1,), gemm=None, spatial=4):
    """Chain of 1x1 convs (optionally a gemm head) with easy MAC arithmetic."""
    rng = Lcg(55)
    g = Graph("macs")
    c_in = conv_channels[0]
    g.add(Node("input", "Input", attrs={"shape": [c_in, spatial, spatial]}))
    prev = "input"
    prev_c = c_in
    for i, c_out in enumerate(conv_channels):
        g.add(Node(f"c{i}", "Conv2d", [prev], attrs={"stride": 1, "padding": 0},
                   weights={"weight": Tensor.f32(rng.uniform(-1, 1, (c_out, prev_c, 1, 1))),
                            "bias": Tensor.f32(np.zeros(c_out, np.float32))}))
        prev, prev_c = f"c{i}", c_out
    if gemm is not None:
        g.add(Node("flat", "Flatten", [prev]))
        k = prev_c * spatial * spatial
        g.add(Node("fc", "Gemm", ["flat"],
                   weights={"weight": Tensor.f32(rng.uniform(-1, 1, (gemm, k))),
                            "bias": Tensor.f32(np.zeros(gemm, np.float32))}))
        prev = "fc"
    g.add(Node("output", "Output", [prev]))
    g.validate()
    return g


class TestCountMacs:
    def test_one_by_one_conv(self):
        g = mac_graph((1,), spatial=4)
        macs = macs_by_node(g)
        assert macs["c0"] == 16  # 16 output elements x 1 mac each

    def test_gemm(self):
        g = Graph("g")
        g.add(Node("input", "Input", attrs={"shape": [10]}))
        g.add(Node("flatten", "Flatten", ["input"]))
        g.add(Node("fc", "Gemm", ["flatten"],
                   weights={"weight": Tensor.f32(np.zeros((5, 10), np.float32)),
                            "bias": Tensor.f32(np.zeros(5, np.float32))}))
        g.add(Node("output", "Output", ["fc"]))
        macs = macs_by_node(g)
        assert macs["fc"] == 50  # 1x10 by 10x5
        assert macs["flatten"] == 0

    def test_conversion_ops_are_free(self, mininet, mininet_calib):
        qg = mq.apply_mixed_precision(mininet, [], mininet_calib)
        macs = macs_by_node(qg)
        for n in qg.nodes:
            if n.kind in ("Quantize", "Dequantize", "Input", "Output"):
                assert macs[n.id] == 0

    def test_depthwise_macs(self):
        g = mq.gen_synthetic("mini_mobilenet", 42)
        shapes = infer_shapes(g)
        macs = macs_by_node(g)
        n = g.node("m1_dw_dwconv")
        out = shapes["m1_dw_dwconv"]
        kh, kw = n.weights["weight"].shape[2:]
        assert macs["m1_dw_dwconv"] == int(np.prod(out)) * kh * kw

    def test_unresolved_shape(self):
        node = Node("x", "ReLU", ["input"])
        with pytest.raises(UnresolvedShape):
            count_macs(node, {})


class TestBops:
    def test_hand_arithmetic_all_int8(self):
        g = mac_graph((1,), gemm=None, spatial=4)
        # replace with explicit numbers: conv 1000 + gemm 500 via synthetic macs table
        macs = {"c0": 1000, "fc": 500}
        gg = Graph("hand")
        gg.add(Node("input", "Input", attrs={"shape": [1, 4, 4]}))
        gg.add(Node("c0", "Conv2d", ["input"], attrs={"stride": 1, "padding": 0},
                    weights={"weight": Tensor.f32(np.ones((1, 1, 1, 1), np.float32))}))
        gg.add(Node("fc", "Gemm", ["c0"], weights={"weight": Tensor.f32(np.ones((1, 16), np.float32))}))
        gg.add(Node("output", "Output", ["fc"]))
        report = bops(gg, {"c0": 8, "fc": 8}, macs=macs)
        assert report.bops_config == 8 * 1500 == 12000
        assert report.bops_fp32 == 48000
        assert np.isclose(report.literal_reduction_pct, 75.0)
        assert np.isclose(report.normalized_reduction_pct, 100.0)
        # all fp32
        report = bops(gg, {"c0": 32, "fc": 32}, macs=macs)
        assert report.literal_reduction_pct == 0.0 and report.normalized_reduction_pct == 0.0
        # conv fp32 + gemm int8
        report = bops(gg, {"c0": 32, "fc": 8}, macs=macs)
        assert report.bops_config == 36000
        assert np.isclose(report.literal_reduction_pct, 25.0)
        assert np.isclose(report.normalized_reduction_pct, 100.0 / 3.0)

    def test_normalized_is_affine_in_literal(self, mininet):
        quantizable = [n.id for n in mininet.nodes if n.kind in mq.ir.QUANTIZABLE_KINDS]
        macs = macs_by_node(mininet)
        rng = Lcg(3)
        for _ in range(10):
            config = {nid: (8 if rng.uniform(0, 1, 1)[0] < 0.5 else 32) for nid in quantizable}
            r = bops(mininet, config, macs=macs)
            # with every MAC-bearing node quantizable, normalized = literal / 0.75
            assert np.isclose(r.normalized_reduction_pct, r.literal_reduction_pct / 0.75)

    def test_quantizing_one_more_node_strictly_decreases(self, mininet):
        quantizable = [n.id for n in mininet.nodes if n.kind in mq.ir.QUANTIZABLE_KINDS]
        macs = macs_by_node(mininet)
        config = {nid: 32 for nid in quantizable}
        last = bops(mininet, config, macs=macs).bops_config
        for nid in quantizable:
            if macs[nid] == 0:
                continue
            config[nid] = 8
            cur = bops(mininet, config, macs=macs).bops_config
            assert cur < last
            last = cur

    def test_incomplete_config(self, mininet):
        with pytest.raises(IncompleteConfig):
            bops(mininet, {"b1_conv": 8})

    def test_bad_bits(self, mininet):
        quantizable = {n.id: 8 for n in mininet.nodes if n.kind in mq.ir.QUANTIZABLE_KINDS}
        quantizable["b1_conv"] = 4
        with pytest.raises(IncompleteConfig):
            bops(mininet, quantizable)


class TestGreedyFrontier:
    def random_chain(self, seed):
        rng = Lcg(seed)
        widths = [1 + int(rng.uniform(1, 8, 1)[0])]
        n_layers = 2 + int(rng.uniform(0, 8, 1)[0])  # <= 10 groups
        g = Graph(f"rand{seed}")
        g.add(Node("input", "Input", attrs={"shape": [widths[0], 6, 6]}))
        prev = "input"
        for i in range(n_layers):
            w = 1 + int(rng.uniform(1, 8, 1)[0])
            g.add(Node(f"c{i}", "Conv2d", [prev],
                       attrs={"stride": 1, "padding": 1},
                       weights={"weight": Tensor.f32(rng.uniform(-1, 1, (w, widths[-1], 3, 3))),
                                "bias": Tensor.f32(np.zeros(w, np.float32))}))
            widths.append(w)
            prev = f"c{i}"
        g.add(Node("output", "Output", [prev]))
        g.validate()
        return g

    def exhaustive_minimal_prefix(self, order, graph, target, macs):
        quantizable = [n.id for n in graph.nodes if n.kind in mq.ir.QUANTIZABLE_KINDS]
        for k in range(len(order) + 1):
            keep = order[:k]
            config = {nid: (32 if nid in keep else 8) for nid in quantizable}
            if bops(graph, config, macs=macs).normalized_reduction_pct <= target:
                return order[:k]
        return order

    def test_matches_exhaustive_oracle_on_20_random_graphs(self):
        rng = Lcg(99)
        for seed in range(20):
            g = self.random_chain(seed)
            macs = macs_by_node(g)
            order = [n.id for n in g.nodes if n.kind == "Conv2d"]
            # shuffle deterministically
            order = sorted(order, key=lambda nid: rng.uniform(0, 1, 1)[0])
            target = float(rng.uniform(0, 100, 1)[0])
            got = select_dequant_set(order, g, target)
            want = self.exhaustive_minimal_prefix(order, g, target, macs)
            assert got == want

    def test_frontier_property(self, mininet, ):
        macs = macs_by_node(mininet)
        sens = mq.baseline_order(mininet, "in_order")
        quantizable = [n.id for n in mininet.nodes if n.kind in mq.ir.QUANTIZABLE_KINDS]
        for target in (10.0, 30.0, 50.0, 70.0, 90.0):
            keep = select_dequant_set(sens, mininet, target)
            config = {nid: (32 if nid in keep else 8) for nid in quantizable}
            assert bops(mininet, config, macs=macs).normalized_reduction_pct <= target
            if keep:
                # removing the last group must overshoot the target
                groups = mq.discover_fusion_groups(mininet)
                last_group = next(g for g in groups if g.members[-1] == keep[-1])
                trimmed = [nid for nid in keep if nid not in set(last_group.members)]
                config = {nid: (32 if nid in trimmed else 8) for nid in quantizable}
                assert bops(mininet, config, macs=macs).normalized_reduction_pct > target


def conv_relu_chain(n_groups, width=4, spatial=6):
    """Input, then `n_groups` of Conv2d -> ReLU, then Output: one fusion group per pair."""
    rng = Lcg(n_groups)
    g = Graph(f"chain{n_groups}")
    g.add(Node("input", "Input", attrs={"shape": [width, spatial, spatial]}))
    prev = "input"
    for i in range(n_groups):
        g.add(Node(f"c{i}", "Conv2d", [prev], attrs={"stride": 1, "padding": 1},
                   weights={"weight": Tensor.f32(rng.uniform(-1, 1, (width, width, 3, 3))),
                            "bias": Tensor.f32(np.zeros(width, np.float32))}))
        g.add(Node(f"r{i}", "ReLU", [f"c{i}"]))
        prev = f"r{i}"
    g.add(Node("output", "Output", [prev]))
    g.validate()
    return g


class TestLinearWalk:
    @pytest.mark.parametrize("n_groups", [1, 7, 40])
    def test_one_accounting_per_call(self, monkeypatch, n_groups):
        """The walk accounts the all-int8 config once and adds each taken
        group's BOPs to it, whatever the list length and target."""
        module = importlib.import_module("mixquant.bops")
        calls = []
        monkeypatch.setattr(module, "bops", lambda *a, **k: calls.append(1) or bops(*a, **k))
        g = conv_relu_chain(n_groups)
        order = [f"c{i}" for i in reversed(range(n_groups))]
        for target in (0.0, 40.0, 99.0, 100.0):
            calls.clear()
            select_dequant_set(order, g, target)
            assert len(calls) == 1

    def test_same_sets_as_accounting_every_prefix(self):
        """Lists that name ReLU members, repeat a group and name unknown ids
        give the set that accounting each candidate prefix's whole config gives."""
        g = conv_relu_chain(9)
        macs = macs_by_node(g)
        member_of = {m: grp for grp in mq.discover_fusion_groups(g) for m in grp.members}
        quantizable = [n.id for n in g.nodes if n.kind in mq.ir.QUANTIZABLE_KINDS]
        names = [f"{k}{i}" for i in range(9) for k in "cr"] + ["input"]
        rng = Lcg(7)
        for _ in range(20):
            ids = [names[int(rng.uniform(0, len(names), 1)[0])] for _ in range(15)]
            target = float(rng.uniform(0, 100, 1)[0])
            want: list[str] = []
            for nid in ids:
                config = {q: (32 if q in want else 8) for q in quantizable}
                if bops(g, config, macs=macs).normalized_reduction_pct <= target:
                    break
                if nid in member_of and nid not in want:
                    want.extend(member_of[nid].members)
            assert select_dequant_set(ids, g, target) == want
