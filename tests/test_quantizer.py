import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mixquant as mq
from mixquant.calibration import activation_qparams, profile_activations
from mixquant.cli import main
from mixquant.errors import AlreadyQuantized, MissingCalibration, UnknownNodeInList
from mixquant.ir import Graph, Node, QuantParams, Tensor
from mixquant.model_io import Lcg
from mixquant.quantizer import (
    _requantize,
    count_qdq,
    expand_to_groups,
    load_node_list,
    precision_config,
    save_node_list,
    save_precision_config,
    select_dequant_set,
)

from conftest import observed


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
        q = mq.quantize_affine(np.array([0.0], np.float32), QuantParams(1.0, 0))
        assert q.data[0] == 0

    def test_symmetric_half_rounds_away(self):
        qp = QuantParams(1.0 / 127.0, 0, symmetric=True)
        q = mq.quantize_affine(np.array([-1.0, 0.5, 1.0], np.float32), qp)
        assert list(q.data) == [-127, 64, 127]

    def test_saturation(self):
        q = mq.quantize_affine(np.array([10.0], np.float32), QuantParams(1.0 / 127.0, 0))
        assert q.data[0] == 127

    def test_dequantize_value(self):
        qp = QuantParams(1.0 / 127.0, 0)
        x = mq.dequantize(Tensor(np.array([64], np.int8), qp))
        assert np.isclose(x.data[0], 0.50394, atol=5e-6)

    def test_zero_point_dequantizes_to_zero(self):
        qp = QuantParams(0.037, -3)
        assert mq.dequantize(Tensor(np.array([-3], np.int8), qp)).data[0] == 0.0

    @given(st.floats(1e-4, 10.0), st.integers(-128, 127),
           st.lists(st.floats(-500, 500, width=32), min_size=1, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_within_half_step(self, step, zp, values):
        qp = QuantParams(step, zp)
        x = np.asarray(values, np.float32)
        lo, hi = (qp.qmin - zp) * step, (qp.qmax - zp) * step
        x = np.clip(x, lo, hi).astype(np.float32)
        back = mq.dequantize(mq.quantize_affine(x, qp)).data.astype(np.float64)
        assert np.abs(back - x).max() <= step / 2 * (1 + 1e-6) + 1e-12


def requantize_oracle(real, qp, relu):
    """sign(q) * floor(|q| + 0.5) + zp, raised to zp under a fused ReLU, then
    clipped: the requantization formula as first written."""
    q = np.asarray(real, np.float64) / qp.step
    q = np.sign(q) * np.floor(np.abs(q) + 0.5) + qp.zero_point
    if relu:
        q = np.maximum(q, qp.zero_point)
    return np.clip(q, qp.qmin, qp.qmax).astype(np.int8)


requant_qparams = st.builds(
    QuantParams, st.sampled_from([2.0 ** e for e in range(-12, 4)]) | st.floats(1e-6, 1e3),
    st.sampled_from([-128, 0, 127]) | st.integers(-128, 127)) | st.builds(
    lambda step: QuantParams(step, 0, symmetric=True), st.floats(1e-6, 1e3))


def clip_requantize(real, qp, relu):
    """_requantize with the np.clip clamp it used before its in-place one."""
    q = np.divide(real, qp.step, dtype=np.float64)
    q += np.copysign(0.5, q)
    np.trunc(q, out=q)
    q += qp.zero_point
    lo = max(qp.qmin, qp.zero_point) if relu else qp.qmin
    return np.clip(q, lo, qp.qmax, out=q).astype(np.int8)


class TestRequantize:
    @given(requant_qparams,
           hnp.arrays(st.sampled_from([np.float32, np.float64]), st.integers(0, 40),
                      elements=st.floats(allow_nan=False, width=32)),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_clamp_equals_np_clip_form(self, qp, real, relu):
        np.testing.assert_array_equal(_requantize(real, qp, relu).data, clip_requantize(real, qp, relu))

    @given(requant_qparams, st.lists(st.integers(-300, 300), min_size=1, max_size=24),
           st.lists(st.floats(-1e4, 1e4), max_size=16), st.booleans())
    @example(QuantParams(0.5, -128), [-3, 0, 2], [], True)
    @example(QuantParams(0.5, 127), [-3, 0, 2], [], True)
    @example(QuantParams(2.0 ** -4, 0, symmetric=True), [-1, 0], [], False)
    @settings(max_examples=300, deadline=None)
    def test_codes_equal_sign_floor_formula(self, qp, halves, others, relu):
        """Exact halves of the step and their float neighbours, +-0, +-1e300
        and arbitrary values requantize to the formula's codes, with and
        without a fused ReLU, whatever the zero point."""
        half = (np.asarray(halves, np.float64) + 0.5) * qp.step
        real = np.concatenate([half, np.nextafter(half, np.inf), np.nextafter(half, -np.inf),
                               [0.0, -0.0, 1e300, -1e300], others])
        with np.errstate(over="ignore"):  # +-1e300 become +-inf in float32
            narrow = real.astype(np.float32)
        for x in (real, narrow):
            got = _requantize(x, qp, relu)
            assert got.qparams == qp
            np.testing.assert_array_equal(got.data, requantize_oracle(x, qp, relu))


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
        ref = ex.run_fp32(chain, x)
        got = ex.run_quantized(qg, x)
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

    def test_already_quantized_graph_rejected(self, mininet, mininet_calib, tmp_path, capsys):
        """A quantized model, given back to the transform, fails as such (exit 3)
        rather than as a calibration gap on its adapters."""
        qg = mq.apply_mixed_precision(mininet, ["b3_conv"], mininet_calib)
        with pytest.raises(AlreadyQuantized, match="already quantized"):
            mq.apply_mixed_precision(qg, [], mininet_calib)
        mq.save_model(qg, tmp_path / "model")
        mininet_calib.save(tmp_path / "calib.json")
        mq.baseline_order(mininet, "in_order").save(tmp_path / "list.txt")
        assert main(["quantize", "--model", str(tmp_path / "model"), "--calib",
                     str(tmp_path / "calib.json"), "--list", str(tmp_path / "list.txt"),
                     "--target-reduction", "100", "--out-dir", str(tmp_path / "out")]) == 3
        assert "already quantized" in capsys.readouterr().err

    def test_missing_calibration(self, chain, chain_images):
        partial = profile_activations(chain, chain_images)
        del partial.profiles["c1"]
        with pytest.raises(MissingCalibration):
            mq.apply_mixed_precision(chain, [], partial)

    def test_monotone_int8_count(self, mininet, mininet_calib):
        groups = mq.discover_fusion_groups(mininet)
        counts = []
        keep: list[str] = []
        for g in (None, *groups):
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
        observed activations equal the pure FP32 run exactly."""
        qg = mq.apply_mixed_precision(chain, ["c1"], chain_calib)
        assert qg.node("c1").precision == 32 and qg.node("r1").precision == 32
        ex = mq.Executor()
        x = Tensor.f32(chain_images[0:1])
        _, ref = observed(ex.run_fp32, chain, x, ["c1", "r1"])
        _, got = observed(ex.run_quantized, qg, x, ["c1", "r1"])
        assert np.array_equal(ref["c1"].data, got["c1"].data)
        assert np.array_equal(ref["r1"].data, got["r1"].data)

    def test_no_redundant_adjacent_qdq_pairs(self, mininet, mininet_calib):
        for keep_anchor in ([], ["b3_conv"], ["b4_conv"], ["b3_conv", "b5_conv"]):
            keep = expand_to_groups(mininet, keep_anchor)
            qg = mq.apply_mixed_precision(mininet, keep, mininet_calib)
            for n in qg.nodes:
                if n.kind == "Quantize":
                    assert qg.node(n.inputs[0]).kind != "Dequantize"


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


class TestTransformProperties:
    @given(st.sampled_from(ARCHS), st.sampled_from(["unfused", "fused"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_adapters_minimal_by_construction(self, staged, arch, stage, data):
        """The Output reaches every node; there is one adapter per (kind,
        source), none fed by another adapter, each on an edge between an FP32
        and an int8 node; every node reads codes iff its producer writes them,
        and every writer of codes records the qparams of the value's
        calibrated range."""
        g, calib = staged[arch][stage]
        keep = data.draw(st.lists(st.sampled_from(quantizable_ids(g)), unique=True))
        qg = mq.apply_mixed_precision(g, keep, calib)

        reached, stack = set(), [qg.output_node.id]
        while stack:
            nid = stack.pop()
            if nid not in reached:
                reached.add(nid)
                stack.extend(qg.node(nid).inputs)
        assert reached == {n.id for n in qg.nodes}

        adapters = [n for n in qg.nodes if n.kind in ("Quantize", "Dequantize")]
        keys = [(n.kind, n.inputs[0]) for n in adapters]
        assert len(set(keys)) == len(keys)
        for n in adapters:
            src = qg.node(n.inputs[0])
            assert not (n.kind == "Quantize" and src.kind == "Dequantize")
            assert src.kind not in ("Quantize", "Dequantize")
            assert (src.precision == 8) == (n.kind == "Dequantize")
            assert all((r.precision == 8) == (n.kind == "Quantize") for r in qg.nodes if n.id in r.inputs)

        def writes_codes(node):
            return node.precision == 8 or node.kind == "Quantize"

        for n in qg.nodes:
            reads_codes = n.precision == 8 or n.kind == "Dequantize"
            assert all(writes_codes(qg.node(src)) == reads_codes for src in n.inputs)
            if writes_codes(n):
                value = qg.node(n.inputs[0]) if n.kind == "Quantize" else n
                profile = calib.for_node(value.attrs.get("profile_id", value.id))
                assert n.attrs["out_qparams"] == activation_qparams(profile)
            else:
                assert "out_qparams" not in n.attrs

    @given(st.sampled_from(ARCHS), st.sampled_from(["unfused", "fused"]), st.data(),
           st.floats(0, 100), st.floats(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_higher_target_keeps_a_subset(self, staged, arch, stage, data, a, b):
        g, _ = staged[arch][stage]
        order = data.draw(st.permutations(quantizable_ids(g)))
        low, high = min(a, b), max(a, b)
        assert set(select_dequant_set(order, g, high)) <= set(select_dequant_set(order, g, low))
