import numpy as np
import pytest

import mixquant as mq
from mixquant.errors import CycleDetected, InvariantViolation, ShapeMismatch
from mixquant.ir import Graph, Node, QuantParams, Tensor, round_half_away

from conftest import run_f32


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
        _, trace = run_f32(mininet, calib_images, capture=True)
        for nid, t in trace.outputs.items():
            assert shapes[nid] == t.shape

    @pytest.mark.parametrize("attrs", [{}, {"stride": None}, {"stride": 1, "padding": 1}])
    def test_pool_stride_default_matches_execution(self, attrs):
        g = Graph("pool")
        g.add(Node("input", "Input", attrs={"shape": [1, 6, 6]}))
        g.add(Node("p", "MaxPool", ["input"], attrs={"kernel": 3, **attrs}))
        g.add(Node("output", "Output", ["p"]))
        y, _ = mq.Executor().run_fp32(g, Tensor.f32(np.zeros((1, 1, 6, 6))))
        assert mq.infer_shapes(g)["p"] == y.shape

    def test_add_operand_mismatch(self):
        g = Graph("bad")
        g.add(Node("input", "Input", attrs={"shape": [1, 4, 4]}))
        g.add(Node("p", "MaxPool", ["input"], attrs={"kernel": 2, "stride": 2}))
        g.add(Node("add", "Add", ["input", "p"]))
        g.add(Node("output", "Output", ["add"]))
        with pytest.raises(ShapeMismatch):
            mq.infer_shapes(g)
