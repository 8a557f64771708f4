import numpy as np
import pytest

import mixquant as mq
from mixquant.calibration import profile_activations
from mixquant.fusion import discover_fusion_groups, fuse_conv_bn, fuse_conv_relu, lower_to_stage
from mixquant.ir import Graph, Node, Tensor
from mixquant.model_io import Lcg
from mixquant.quantizer import count_qdq, expand_to_groups

from conftest import graph_signature, run_f32


def conv_bn_graph(gamma, beta, mean, var, w, b, eps=0.0):
    g = Graph("cb")
    c = len(gamma)
    g.add(Node("input", "Input", attrs={"shape": [w.shape[1], 4, 4]}))
    g.add(Node("c", "Conv2d", ["input"], attrs={"stride": 1, "padding": 1},
               weights={"weight": Tensor.f32(w), "bias": Tensor.f32(b)}))
    g.add(Node("bn", "BatchNorm", ["c"], attrs={"epsilon": eps},
               weights={"gamma": Tensor.f32(gamma), "beta": Tensor.f32(beta),
                        "mean": Tensor.f32(mean), "var": Tensor.f32(var)}))
    g.add(Node("output", "Output", ["bn"]))
    return g


class TestFuseConvBn:
    def test_identity_bn_leaves_weights(self):
        w = Lcg(1).uniform(-1, 1, (2, 2, 3, 3)).astype(np.float32)
        g = conv_bn_graph(np.ones(2, np.float32), np.zeros(2, np.float32),
                          np.zeros(2, np.float32), np.ones(2, np.float32), w, np.zeros(2, np.float32))
        fused = fuse_conv_bn(g)
        assert "bn" not in fused
        np.testing.assert_allclose(fused.node("c").weights["weight"].data, w, rtol=1e-6)
        assert fused.node("c").attrs["profile_id"] == "bn"

    def test_hand_fold(self):
        # gamma=2, var=4, eps=0, mean=1, bias=1, beta=0.5 -> W'=W, B'=0.5
        w = np.full((1, 1, 1, 1), 0.75, np.float32)
        g = conv_bn_graph(np.array([2.0], np.float32), np.array([0.5], np.float32),
                          np.array([1.0], np.float32), np.array([4.0], np.float32),
                          w, np.array([1.0], np.float32))
        fused = fuse_conv_bn(g)
        np.testing.assert_allclose(fused.node("c").weights["weight"].data, w, rtol=1e-7)
        np.testing.assert_allclose(fused.node("c").weights["bias"].data, [0.5], rtol=1e-7)

    def test_mininet_outputs_preserved(self, mininet, calib_images):
        fused = fuse_conv_bn(mininet)
        assert sum(1 for n in fused.nodes if n.kind == "BatchNorm") == 0
        for i in range(10):
            ref, _ = run_f32(mininet, calib_images, idx=i)
            got, _ = run_f32(fused, calib_images, idx=i)
            rel = np.abs(ref.data - got.data).max() / np.abs(ref.data).max()
            assert rel <= 1e-4

    def test_conv_with_extra_consumer_untouched(self):
        w = np.ones((1, 1, 1, 1), np.float32)
        g = conv_bn_graph(np.ones(1, np.float32), np.zeros(1, np.float32),
                          np.zeros(1, np.float32), np.ones(1, np.float32), w, np.zeros(1, np.float32))
        # second consumer of the conv blocks folding
        g.node("output").inputs = ["add"]
        g.add(Node("r2", "ReLU", ["c"]))
        g.add(Node("add", "Add", ["bn", "r2"]))
        fused = fuse_conv_bn(g)
        assert "bn" in fused


class TestFuseConvRelu:
    def test_clamp_semantics_fp32_exact(self, calib_images):
        rng = Lcg(3)
        g = Graph("cr")
        g.add(Node("input", "Input", attrs={"shape": [3, 16, 16]}))
        g.add(Node("c", "Conv2d", ["input"], attrs={"stride": 1, "padding": 1},
                   weights={"weight": Tensor.f32(rng.uniform(-1, 1, (4, 3, 3, 3))),
                            "bias": Tensor.f32(np.zeros(4, np.float32))}))
        g.add(Node("r", "ReLU", ["c"]))
        g.add(Node("output", "Output", ["r"]))
        fused = fuse_conv_relu(g)
        assert "r" not in fused and fused.node("c").attrs["fused_relu"]
        assert fused.node("c").attrs["profile_id"] == "r"
        ref, _ = run_f32(g, calib_images)
        got, _ = run_f32(fused, calib_images)
        assert np.array_equal(ref.data, got.data)

    def test_requant_levels_hand_example(self):
        """Fused int8 path computes max(0, round(y / out_step)) in levels."""
        from mixquant.executor import _requantize
        from mixquant.ir import QuantParams
        qp = QuantParams(0.5, -128)  # relu output range [0, ~63.75]
        y = np.array([-3.0, 0.5])
        q = _requantize(y, qp, clamp_at_zero=True)
        assert list(q.data.astype(np.int64) - qp.zero_point) == [0, 1]

    def test_all_negative_conv_is_all_zero(self, calib_images):
        g = Graph("neg")
        g.add(Node("input", "Input", attrs={"shape": [3, 16, 16]}))
        g.add(Node("c", "Conv2d", ["input"], attrs={"stride": 1, "padding": 0},
                   weights={"weight": Tensor.f32(np.zeros((1, 3, 1, 1), np.float32)),
                            "bias": Tensor.f32(np.array([-2.0], np.float32))}))
        g.add(Node("r", "ReLU", ["c"]))
        g.add(Node("output", "Output", ["r"]))
        calib = profile_activations(g, calib_images)
        qg = mq.apply_mixed_precision(lower_to_stage(g, "fused"), [], calib)
        y, _ = mq.Executor().run_quantized(qg, mq.Tensor.f32(calib_images[0:1]))
        assert np.all(y.data == 0.0)

    def test_fused_mse_not_worse_than_two_step(self, calib_images):
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
        for i in range(images.shape[0]):
            x = mq.Tensor.f32(images[i:i + 1])
            ref, _ = ex.run_fp32(g, x)
            ya, _ = ex.run_quantized(two_step, x)
            yc, _ = ex.run_quantized(fused, x)
            mse_two += mq.mse(ref, ya)
            mse_fused += mq.mse(ref, yc)
        assert mse_fused <= mse_two


class TestDiscoverGroups:
    def test_pattern_sizes(self):
        rng = Lcg(9)
        g = Graph("patterns")
        g.add(Node("input", "Input", attrs={"shape": [2, 4, 4]}))

        def conv(name, src):
            g.add(Node(name, "Conv2d", [src], attrs={"stride": 1, "padding": 1},
                       weights={"weight": Tensor.f32(rng.uniform(-1, 1, (2, 2, 3, 3))),
                                "bias": Tensor.f32(np.zeros(2, np.float32))}))
        conv("c1", "input")
        g.add(Node("bn1", "BatchNorm", ["c1"], attrs={"epsilon": 1e-5},
                   weights={"gamma": Tensor.f32(np.ones(2)), "beta": Tensor.f32(np.zeros(2)),
                            "mean": Tensor.f32(np.zeros(2)), "var": Tensor.f32(np.ones(2))}))
        g.add(Node("r1", "ReLU", ["bn1"]))
        conv("c2", "r1")
        g.add(Node("r2", "ReLU", ["c2"]))
        conv("c3", "r2")
        g.add(Node("output", "Output", ["c3"]))
        groups = discover_fusion_groups(g)
        assert [len(gr.members) for gr in groups] == [3, 2, 1]
        assert [gr.anchor for gr in groups] == ["c1", "c2", "c3"]

    def test_residual_four_member_group(self, mininet):
        groups = {gr.anchor: gr for gr in discover_fusion_groups(mininet)}
        assert groups["b4_conv"].members == ("b4_conv", "b4_bn", "b4_add", "b4_relu")

    def test_partition(self, all_archs):
        for g in all_archs.values():
            groups = discover_fusion_groups(g)
            seen = [m for gr in groups for m in gr.members]
            assert len(seen) == len(set(seen))
            quantizable = {n.id for n in g.nodes if n.kind in mq.ir.QUANTIZABLE_KINDS}
            assert set(seen) == quantizable

    def test_deterministic(self, mininet):
        assert discover_fusion_groups(mininet) == discover_fusion_groups(mininet)


class TestLowerToStage:
    def test_stage_unfused_is_identity(self, mininet):
        assert graph_signature(lower_to_stage(mininet, "unfused")) == graph_signature(mininet)

    def test_stage_fused_chain_collapses(self):
        rng = Lcg(2)
        g = Graph("chain")
        g.add(Node("input", "Input", attrs={"shape": [2, 4, 4]}))
        g.add(Node("c", "Conv2d", ["input"], attrs={"stride": 1, "padding": 1},
                   weights={"weight": Tensor.f32(rng.uniform(-1, 1, (2, 2, 3, 3))),
                            "bias": Tensor.f32(np.zeros(2, np.float32))}))
        g.add(Node("bn", "BatchNorm", ["c"], attrs={"epsilon": 1e-5},
                   weights={"gamma": Tensor.f32(np.ones(2)), "beta": Tensor.f32(np.zeros(2)),
                            "mean": Tensor.f32(np.zeros(2)), "var": Tensor.f32(np.ones(2))}))
        g.add(Node("r", "ReLU", ["bn"]))
        g.add(Node("output", "Output", ["r"]))
        fused = lower_to_stage(g, "fused")
        kinds = [n.kind for n in fused.nodes]
        assert kinds == ["Input", "Conv2d", "Output"]
        assert fused.node("c").attrs["fused_relu"]

    def test_fused_has_fewer_or_equal_nodes(self, all_archs):
        for g in all_archs.values():
            assert len(lower_to_stage(g, "fused").nodes) <= len(g.nodes)

    def test_stage_equivalence_all_archs(self, all_archs):
        for g in all_archs.values():
            shape = tuple(int(d) for d in g.input_node.attrs["shape"])
            images = mq.gen_images(10, shape, 21)
            fused = lower_to_stage(g, "fused")
            for i in range(10):
                ref, _ = run_f32(g, images, idx=i)
                got, _ = run_f32(fused, images, idx=i)
                rel = np.abs(ref.data - got.data).max() / np.abs(ref.data).max()
                assert rel <= 1e-4

    def test_unknown_stage(self, mininet):
        with pytest.raises(ValueError):
            lower_to_stage(mininet, "B")


class TestQdqAcrossStages:
    @pytest.mark.parametrize("keep_anchors", [[], ["b3_conv"], ["b4_conv"], ["b3_conv", "b6_conv"], ["fc"]])
    def test_fused_application_never_needs_more_qdq(self, mininet, mininet_calib, keep_anchors):
        unfused = mq.apply_mixed_precision(
            mininet, expand_to_groups(mininet, keep_anchors), mininet_calib)
        staged = lower_to_stage(mininet, "fused")
        fused = mq.apply_mixed_precision(
            staged, expand_to_groups(staged, keep_anchors), mininet_calib)
        assert count_qdq(fused) <= count_qdq(unfused)


# ---------------------------------------------------------------------------
# the single-scan passes against the restart-after-each-match definition

def _oracle_sole_consumer(graph, node_id):
    consumers = graph.consumers(node_id)
    return consumers[0] if len(consumers) == 1 else None


def _oracle_drop_node(graph, victim_id, replacement_id):
    out = Graph(graph.name)
    for n in graph.nodes:
        if n.id == victim_id:
            continue
        n = n.copy()
        n.inputs = [replacement_id if s == victim_id else s for s in n.inputs]
        out.add(n)
    return out


def oracle_fuse_conv_bn(graph):
    """Rescans the whole graph after every fold, as the passes first did."""
    g = graph.copy()
    while True:
        match = None
        for n in g.nodes:
            if n.kind != "BatchNorm":
                continue
            producer = g.node(n.inputs[0])
            if producer.kind in ("Conv2d", "DepthwiseConv2d") \
                    and _oracle_sole_consumer(g, producer.id) is not None \
                    and _oracle_sole_consumer(g, producer.id).id == n.id:
                match = (producer, n)
                break
        if match is None:
            return g
        conv, bn = match
        gamma = bn.weights["gamma"].data.astype(np.float64)
        beta = bn.weights["beta"].data.astype(np.float64)
        mean = bn.weights["mean"].data.astype(np.float64)
        var = bn.weights["var"].data.astype(np.float64)
        scale = gamma / np.sqrt(var + float(bn.attrs.get("epsilon", 1e-5)))
        w = conv.weights["weight"].data.astype(np.float64)
        b = conv.weights.get("bias")
        b = b.data.astype(np.float64) if b is not None else np.zeros(w.shape[0])
        conv = conv.copy()
        conv.weights = {
            "weight": Tensor((w * scale[:, None, None, None]).astype(np.float32)),
            "bias": Tensor(((b - mean) * scale + beta).astype(np.float32)),
        }
        conv.attrs["profile_id"] = bn.attrs.get("profile_id", bn.id)
        rebuilt = Graph(g.name)
        for n in g.nodes:
            rebuilt.add(conv if n.id == conv.id else n)
        g = _oracle_drop_node(rebuilt, bn.id, conv.id)


def oracle_fuse_conv_relu(graph):
    g = graph.copy()
    while True:
        match = None
        for n in g.nodes:
            if n.kind != "ReLU":
                continue
            producer = g.node(n.inputs[0])
            if producer.kind in ("Conv2d", "DepthwiseConv2d") and not producer.attrs.get("fused_relu") \
                    and _oracle_sole_consumer(g, producer.id) is not None \
                    and _oracle_sole_consumer(g, producer.id).id == n.id:
                match = (producer, n)
                break
        if match is None:
            return g
        conv, relu = match
        conv = conv.copy()
        conv.attrs["fused_relu"] = True
        conv.attrs["profile_id"] = relu.attrs.get("profile_id", relu.id)
        rebuilt = Graph(g.name)
        for n in g.nodes:
            rebuilt.add(conv if n.id == conv.id else n)
        g = _oracle_drop_node(rebuilt, relu.id, conv.id)


def oracle_fusion_groups(graph):
    order = mq.topo_sort(graph)
    taken, groups = set(), []
    for nid in order:
        if graph.node(nid).kind not in ("Conv2d", "DepthwiseConv2d") or nid in taken:
            continue
        members, nxt = [nid], _oracle_sole_consumer(graph, nid)
        for kind in ("BatchNorm", "Add", "ReLU"):
            if nxt is not None and nxt.kind == kind and nxt.id not in taken:
                members.append(nxt.id)
                nxt = _oracle_sole_consumer(graph, nxt.id) if kind != "ReLU" else None
        taken.update(members)
        groups.append((nid, tuple(members)))
    for nid in order:
        if graph.node(nid).kind in mq.ir.QUANTIZABLE_KINDS and nid not in taken:
            taken.add(nid)
            groups.append((nid, (nid,)))
    return sorted(groups, key=lambda g: order.index(g[0]))


def _bn(nid, src, c, rng):
    return Node(nid, "BatchNorm", [src], attrs={"epsilon": 1e-5},
                weights={"gamma": Tensor.f32(rng.uniform(0.5, 1.5, (c,))),
                         "beta": Tensor.f32(rng.uniform(-1, 1, (c,))),
                         "mean": Tensor.f32(rng.uniform(-1, 1, (c,))),
                         "var": Tensor.f32(rng.uniform(0.5, 2.0, (c,)))})


def _conv(nid, src, c, rng):
    return Node(nid, "Conv2d", [src], attrs={"stride": 1, "padding": 1},
                weights={"weight": Tensor.f32(rng.uniform(-1, 1, (c, c, 3, 3))),
                         "bias": Tensor.f32(rng.uniform(-1, 1, (c,)))})


def chain(kinds, reverse=False):
    """input -> conv -> kinds... -> output, inserted last node first if `reverse`."""
    rng, c = Lcg(11), 2
    nodes = [Node("input", "Input", attrs={"shape": [c, 4, 4]}), _conv("c", "input", c, rng)]
    for i, kind in enumerate(kinds):
        src = nodes[-1].id
        nodes.append(_bn(f"n{i}", src, c, rng) if kind == "BatchNorm" else Node(f"n{i}", kind, [src]))
    nodes.append(Node("output", "Output", [nodes[-1].id]))
    return Graph("chain", nodes[::-1] if reverse else nodes)


def two_consumer_graph():
    """c feeds both a BN and a ReLU; c2 -> BN -> ReLU folds completely."""
    rng, c = Lcg(12), 2
    return Graph("two", [
        Node("input", "Input", attrs={"shape": [c, 4, 4]}), _conv("c", "input", c, rng),
        _bn("bn", "c", c, rng), Node("r", "ReLU", ["c"]), Node("add", "Add", ["bn", "r"]),
        _conv("c2", "add", c, rng), _bn("bn2", "c2", c, rng), Node("r2", "ReLU", ["bn2"]),
        Node("output", "Output", ["r2"])])


def folded_node_with_two_consumers():
    """bn1 folds into c; c then has two consumers, so bn2 must stay."""
    rng, c = Lcg(13), 2
    return Graph("fan", [
        Node("input", "Input", attrs={"shape": [c, 4, 4]}), _conv("c", "input", c, rng),
        _bn("bn1", "c", c, rng), _bn("bn2", "bn1", c, rng), Node("r", "ReLU", ["bn1"]),
        Node("add", "Add", ["bn2", "r"]), Node("output", "Output", ["add"])])


ORACLE_CASES = {
    "conv_bn_bn": lambda archs: chain(["BatchNorm", "BatchNorm"]),
    "conv_relu_bn": lambda archs: chain(["ReLU", "BatchNorm"]),
    "conv_relu_relu": lambda archs: chain(["ReLU", "ReLU"]),
    "conv_bn_relu_bn_relu": lambda archs: chain(["BatchNorm", "ReLU", "BatchNorm", "ReLU"]),
    "out_of_topo_order": lambda archs: chain(["BatchNorm", "BatchNorm", "ReLU"], reverse=True),
    "two_consumers": lambda archs: two_consumer_graph(),
    "two_consumers_reversed": lambda archs: Graph("rev", two_consumer_graph().nodes[::-1]),
    "folded_node_with_two_consumers": lambda archs: folded_node_with_two_consumers(),
    "mininet": lambda archs: archs["mininet"],
    "mini_resnet": lambda archs: archs["mini_resnet"],
    "mini_mobilenet": lambda archs: archs["mini_mobilenet"],
}


def same_graph(a, b):
    return a.name == b.name and graph_signature(a) == graph_signature(b)


class TestSingleScanMatchesRestartLoop:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_passes_equal_oracle(self, case, all_archs):
        g = ORACLE_CASES[case](all_archs)
        before = graph_signature(g)
        bn, relu = fuse_conv_bn(g), fuse_conv_relu(g)
        assert same_graph(bn, oracle_fuse_conv_bn(g))
        assert same_graph(relu, oracle_fuse_conv_relu(g))
        assert same_graph(fuse_conv_relu(bn), oracle_fuse_conv_relu(oracle_fuse_conv_bn(g)))
        assert same_graph(lower_to_stage(g, "fused"), fuse_conv_relu(bn))
        assert graph_signature(g) == before  # the input graph is left alone
        for stage in (g, bn, lower_to_stage(g, "fused")):
            got = [(grp.anchor, grp.members) for grp in discover_fusion_groups(stage)]
            assert got == oracle_fusion_groups(stage)

    def test_chains_fold_as_expected(self):
        fused = lower_to_stage(chain(["BatchNorm", "BatchNorm"]), "fused")
        assert [n.id for n in fused.nodes] == ["input", "c", "output"]
        assert fused.node("c").attrs["profile_id"] == "n1"
        # the BN after a fused ReLU stays: folding it would move the clamp
        fused = lower_to_stage(chain(["ReLU", "BatchNorm"]), "fused")
        assert [n.id for n in fused.nodes] == ["input", "c", "n1", "output"]
        assert fused.node("n1").inputs == ["c"] and fused.node("c").attrs["fused_relu"]
        fused = lower_to_stage(chain(["ReLU", "ReLU"]), "fused")
        assert [n.id for n in fused.nodes] == ["input", "c", "n1", "output"]
        fused = lower_to_stage(two_consumer_graph(), "fused")
        assert {"bn", "r"} <= {n.id for n in fused.nodes}
        assert "bn2" not in fused and "r2" not in fused
        assert fused.node("output").inputs == ["c2"]
        fused = lower_to_stage(folded_node_with_two_consumers(), "fused")
        assert "bn1" not in fused and fused.node("bn2").inputs == ["c"]
