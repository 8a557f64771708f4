import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixquant as mq
from mixquant.errors import CycleDetected, InvalidAttribute, InvariantViolation, ShapeMismatch
from mixquant.ir import Graph, Node, QuantParams, Tensor, _topo_order, _window, round_half_away

from conftest import non_input, observed, run_f32


def resorting_kahn(edges):
    """Reference order, as ir._topo_order computed it before its heap: Kahn's
    algorithm that re-sorts the ready list by insertion index whenever a pop
    frees a node."""
    order_idx = {nid: i for i, (nid, _) in enumerate(edges)}
    indeg = dict.fromkeys(order_idx, 0)
    out_edges = {nid: [] for nid in order_idx}
    for nid, inputs in edges:
        for src in inputs:
            out_edges[src].append(nid)
            indeg[nid] += 1
    ready = sorted((nid for nid, d in indeg.items() if d == 0), key=order_idx.__getitem__)
    result = []
    while ready:
        nid = ready.pop(0)
        result.append(nid)
        changed = False
        for dst in out_edges[nid]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
                changed = True
        if changed:
            ready.sort(key=order_idx.__getitem__)
    return tuple(result)


@st.composite
def random_dags(draw):
    """((node id, input ids), ...) in insertion order; the nodes' order along
    the edges is a random permutation of it, and a node may read one input twice."""
    n = draw(st.integers(1, 24))
    rank = draw(st.permutations(range(n)))
    by_rank = sorted(range(n), key=rank.__getitem__)
    edges = []
    for i in range(n):
        upstream = by_rank[:rank[i]]
        inputs = draw(st.lists(st.sampled_from(upstream), max_size=4)) if upstream else []
        edges.append((f"n{i}", tuple(f"n{j}" for j in inputs)))
    return tuple(edges)


def chain_graph():
    g = Graph("chain")
    g.add(Node("input", "Input", attrs={"shape": [1, 2, 2]}))
    g.add(Node("c", "Conv2d", ["input"], attrs={"stride": 1, "padding": 0},
               weights={"weight": Tensor.f32(np.ones((1, 1, 1, 1))),
                        "bias": Tensor.f32(np.zeros(1))}))
    g.add(Node("output", "Output", ["c"]))
    return g


def diamond_graph():
    g = Graph("diamond")
    g.add(Node("input", "Input", attrs={"shape": [1, 2, 2]}))
    g.add(Node("a", "ReLU", ["input"]))
    g.add(Node("b", "ReLU", ["input"]))
    g.add(Node("add", "Add", ["a", "b"]))
    g.add(Node("output", "Output", ["add"]))
    return g


class TestTopoSort:
    def test_chain_order_forced(self):
        assert mq.topo_sort(chain_graph()) == ["input", "c", "output"]

    def test_diamond_insertion_order_tie_break(self):
        assert mq.topo_sort(diamond_graph()) == ["input", "a", "b", "add", "output"]

    def test_cycle_detected(self):
        g = Graph("loop")
        g.add(Node("input", "Input", attrs={"shape": [1, 2, 2]}))
        g.add(Node("x", "ReLU", ["y"]))
        g.add(Node("y", "ReLU", ["x"]))
        g.add(Node("output", "Output", ["y"]))
        with pytest.raises(CycleDetected):
            mq.topo_sort(g)

    def test_cycle_message_names_a_node_on_the_cycle(self):
        """Nodes downstream of a cycle are left unordered too; the message
        names one on the cycle itself."""
        g = Graph("loop")
        g.add(Node("input", "Input", attrs={"shape": [1, 2, 2]}))
        g.add(Node("tail", "ReLU", ["y"]))
        g.add(Node("x", "Add", ["input", "y"]))
        g.add(Node("y", "ReLU", ["x"]))
        g.add(Node("output", "Output", ["tail"]))
        with pytest.raises(CycleDetected, match="node '[xy]' lies on a cycle"):
            mq.topo_sort(g)

    def test_each_graph_is_ordered_once(self, monkeypatch):
        """topo_sort, the executor's plan and fusion-group discovery share one
        order per graph, kept in its memo; a copy orders its own."""
        from mixquant import ir
        calls, order = [], ir._topo_order
        monkeypatch.setattr(ir, "_topo_order", lambda edges: (calls.append(len(edges)), order(edges))[1])
        g = mq.gen_synthetic("mini_resnet", 5)
        for graph in (g, g.copy()):
            run_f32(graph, mq.gen_images(1, (3, 16, 16), 1))
            mq.topo_sort(graph)
            mq.discover_fusion_groups(graph)
        assert calls == [len(g.nodes)] * 2

    @given(random_dags())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_resorting_kahn_order(self, edges):
        """Popping the smallest ready insertion index from a heap gives the
        order that re-sorting the ready list after every pop gave."""
        assert _topo_order(edges) == resorting_kahn(edges)

    def test_permutation_and_repeatable(self, mininet):
        order = mq.topo_sort(mininet)
        assert sorted(order) == sorted(n.id for n in mininet.nodes)
        assert order == mq.topo_sort(mininet)

    def test_every_node_after_its_inputs(self, mininet):
        pos = {nid: i for i, nid in enumerate(mq.topo_sort(mininet))}
        for n in mininet.nodes:
            assert all(pos[src] < pos[n.id] for src in n.inputs)


class TestTypes:
    def test_i8_tensor_requires_qparams(self):
        with pytest.raises(InvariantViolation):
            Tensor(np.zeros(3, dtype=np.int8))

    @pytest.mark.parametrize("dtype", [np.int32, np.float16, np.float64])
    def test_only_f32_and_i8_tensors(self, dtype):
        with pytest.raises(InvariantViolation, match="unsupported tensor dtype"):
            Tensor(np.zeros(3, dtype=dtype))

    def test_f32_tensor_rejects_qparams(self):
        with pytest.raises(InvariantViolation):
            Tensor(np.zeros(3, dtype=np.float32), QuantParams(1.0, 0))

    def test_qparams_step_positive(self):
        with pytest.raises(InvariantViolation):
            QuantParams(0.0, 0)

    @pytest.mark.parametrize("step", [float("inf"), float("nan")])
    def test_qparams_step_finite(self, step):
        with pytest.raises(InvariantViolation, match="positive and finite"):
            QuantParams(step, 0)

    def test_symmetric_zero_point_pinned(self):
        with pytest.raises(InvariantViolation):
            QuantParams(1.0, 3, symmetric=True)

    def test_ranges(self):
        assert (QuantParams(1.0, 0, symmetric=True).qmin, QuantParams(1.0, 0, symmetric=True).qmax) == (-127, 127)
        assert (QuantParams(1.0, 0).qmin, QuantParams(1.0, 0).qmax) == (-128, 127)

    def test_duplicate_node_id_rejected(self):
        g = Graph("dup")
        g.add(Node("x", "ReLU"))
        with pytest.raises(InvariantViolation):
            g.add(Node("x", "ReLU"))


class TestRounding:
    @pytest.mark.parametrize("value,expected", [
        (0.5, 1.0), (-0.5, -1.0), (1.5, 2.0), (-1.5, -2.0),
        (2.4, 2.0), (-2.4, -2.0), (63.5, 64.0), (0.0, 0.0),
    ])
    def test_half_away_from_zero(self, value, expected):
        assert round_half_away(value) == expected


class TestShapeInference:
    def test_matches_execution(self, mininet, calib_images):
        shapes = mq.infer_shapes(mininet)
        _, trace = observed(mq.Executor().run_fp32, mininet, Tensor.f32(calib_images[:1]), non_input(mininet))
        for nid, t in trace.items():
            assert shapes[nid] == t.shape

    @pytest.mark.parametrize("attrs", [{}, {"stride": None}, {"stride": 1, "padding": 1}])
    def test_pool_stride_default_matches_execution(self, attrs):
        g = Graph("pool")
        g.add(Node("input", "Input", attrs={"shape": [1, 6, 6]}))
        g.add(Node("p", "MaxPool", ["input"], attrs={"kernel": 3, **attrs}))
        g.add(Node("output", "Output", ["p"]))
        y = mq.Executor().run_fp32(g, Tensor.f32(np.zeros((1, 1, 6, 6))))
        assert mq.infer_shapes(g)["p"] == y.shape

    def test_add_operand_mismatch(self):
        g = Graph("bad")
        g.add(Node("input", "Input", attrs={"shape": [1, 4, 4]}))
        g.add(Node("p", "MaxPool", ["input"], attrs={"kernel": 2, "stride": 2}))
        g.add(Node("add", "Add", ["input", "p"]))
        g.add(Node("output", "Output", ["add"]))
        with pytest.raises(ShapeMismatch):
            mq.infer_shapes(g)


# ---------------------------------------------------------------------------
# one window parser, held to the rules it replaced

def former_pair(v):
    """The former ir._pair: what shape inference and the executor read."""
    if isinstance(v, (list, tuple)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def former_window(kind, attrs, weight_shape):
    """The former load-time rules of model_io._check_node, then former_pair's
    reading of what they accept; None where they reject."""
    def ok(v, least):
        items = v if isinstance(v, (list, tuple)) and len(v) == 2 else [v]
        return all(type(x) is int and x >= least for x in items)

    pool = kind in ("MaxPool", "AvgPool")
    if pool and not ok(attrs.get("kernel"), 1):
        return None
    if not (pool and attrs.get("stride") is None) and not ok(attrs.get("stride", 1), 1):
        return None
    if not ok(attrs.get("padding", 0), 0):
        return None
    kernel = former_pair(attrs["kernel"]) if pool else tuple(weight_shape[2:])
    stride = kernel if pool and attrs.get("stride") is None else former_pair(attrs.get("stride", 1))
    padding = former_pair(attrs.get("padding", 0))
    if pool and (padding[0] >= kernel[0] or padding[1] >= kernel[1]):
        return None
    return kernel, stride, padding


SMALL = st.integers(-2, 4)
ATTR_VALUES = st.one_of(SMALL, st.tuples(SMALL, SMALL), st.lists(SMALL, min_size=2, max_size=2),
                        st.lists(SMALL, min_size=1, max_size=3), st.none(), st.floats(-2, 4),
                        st.booleans(), st.sampled_from(["2", ""]))


class TestWindow:
    @given(st.sampled_from(["Conv2d", "DepthwiseConv2d", "MaxPool", "AvgPool"]),
           st.integers(1, 3), st.integers(1, 3),
           st.fixed_dictionaries({}, optional={k: ATTR_VALUES for k in ("kernel", "stride", "padding")}))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_former_rules(self, kind, kh, kw, attrs):
        weight_shape = (2, 1, kh, kw)
        weights = {} if kind in ("MaxPool", "AvgPool") else {"weight": Tensor.f32(np.zeros(weight_shape))}
        node = Node("n", kind, ["input"], attrs=attrs, weights=weights)
        want = former_window(kind, attrs, weight_shape)
        if want is None:
            with pytest.raises(InvalidAttribute, match="'n'"):
                _window(node)
        else:
            assert _window(node) == want
