import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixquant as mq
from mixquant import executor
from mixquant.calibration import (
    CalibrationProfile,
    HistogramProfile,
    RangeProfile,
    activation_qparams,
    profile_activations,
    weight_qparams,
)
from mixquant.errors import EmptyCalibrationSet, EmptyProfile, MissingCalibration, NonFiniteValue
from mixquant.ir import Graph, Node, Tensor

from conftest import BUDGETS, histogram_layout, observed


def profile_of(values):
    r = RangeProfile()
    r.update(np.asarray(values, dtype=np.float64))
    return r


def state(r):
    return (r.min, r.max, r.total)


class TestRangeProfile:
    def test_min_max_total(self):
        assert state(profile_of([-1.5, 0.0, 3.0, 2.0])) == (-1.5, 3.0, 4)

    def test_update_widens_monotonically(self):
        r = profile_of([0.5])
        r.update(np.array([2.0, -3.0]))
        assert state(r) == (-3.0, 2.0, 3)

    def test_json_round_trip(self):
        for r in (profile_of([-0.5, 0.25, 3.0]), RangeProfile()):
            assert state(RangeProfile.from_json(r.to_json())) == state(r)

    def test_older_name_is_the_same_class(self):
        assert HistogramProfile is RangeProfile


class TestNonFiniteUpdate:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("first", [True, False])
    def test_rejected_and_profile_unchanged(self, bad, first):
        r = RangeProfile() if first else profile_of([-0.5, 0.25, 3.0])
        before = state(r)
        with pytest.raises(NonFiniteValue):
            r.update(np.array([1.0, bad, -2.0]))
        assert state(r) == before

    def test_finite_extremes_accepted(self):
        assert state(profile_of([-1e300, 1e300])) == (-1e300, 1e300, 2)


class TestRangeRecordProperty:
    """The record of every node equals the float64 min, max and size of its
    outputs, taken image by image, at every batch size the budget gives."""

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @given(arch=st.sampled_from(["mininet", "mini_resnet", "mini_mobilenet"]),
           count=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=12, deadline=None)
    def test_record_equals_float64_reduction(self, all_archs, budget, arch, count, seed):
        graph = all_archs[arch]
        images = mq.gen_images(count, tuple(graph.input_node.attrs["shape"]), seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(executor, "ACTIVATION_BUDGET_BYTES", BUDGETS[budget])
            prof = profile_activations(graph, images)
        nodes = [n.id for n in graph.nodes if n.kind not in ("Input", "Output")]
        want = {nid: (np.inf, -np.inf, 0) for nid in [graph.input_node.id, *nodes]}
        for j in range(count):
            _, trace = observed(mq.Executor().run_fp32, graph, Tensor.f32(images[j:j + 1]), nodes)
            outs = {graph.input_node.id: images[j], **{nid: trace[nid].data for nid in nodes}}
            for nid, out in outs.items():
                v = out.astype(np.float64)
                lo, hi, total = want[nid]
                want[nid] = (min(lo, float(v.min())), max(hi, float(v.max())), total + v.size)
        assert {nid: state(r) for nid, r in prof.profiles.items()} == want

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @given(count=st.integers(1, 6), data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_non_finite_image_raises(self, all_archs, budget, count, data):
        graph = all_archs["mini_resnet"]
        images = mq.gen_images(count, tuple(graph.input_node.attrs["shape"]), 3)
        j = data.draw(st.integers(0, count - 1), label="image")
        flat = data.draw(st.integers(0, images[j].size - 1), label="element")
        images[j].reshape(-1)[flat] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(executor, "ACTIVATION_BUDGET_BYTES", BUDGETS[budget])
            with pytest.raises(NonFiniteValue), np.errstate(invalid="ignore", over="ignore"):
                profile_activations(graph, images)

    @given(count=st.integers(1, 6), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_non_finite_in_any_image_of_a_batch_raises(self, count, data):
        batch = np.asarray(mq.gen_images(count, (2, 3, 3), 5), np.float32)
        j = data.draw(st.integers(0, count - 1), label="image")
        batch[j].reshape(-1)[data.draw(st.integers(0, 17))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(NonFiniteValue):
            RangeProfile().update(batch)


class TestProfileActivations:
    @pytest.mark.parametrize("budget", ["1 byte", "1e9 bytes"])
    def test_input_range_is_the_images_exact_range(self, all_archs, budget):
        """The Input's record, folded through the pass's observer like any
        other node's, holds the images' exact min, max and element count,
        whether they come one per batch or all in one."""
        graph = all_archs["mini_resnet"]
        images = mq.gen_images(5, tuple(graph.input_node.attrs["shape"]), 21)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(executor, "ACTIVATION_BUDGET_BYTES", BUDGETS[budget])
            assert (executor.batch_size(graph) >= len(images)) == (budget == "1e9 bytes")
            prof = profile_activations(graph, images)
        want = (float(images.min()), float(images.max()), images.size)
        assert state(prof.for_node(graph.input_node.id)) == want

    def test_relu_profile_nonnegative(self):
        g = Graph("r")
        g.add(Node("input", "Input", attrs={"shape": [1, 2, 2]}))
        g.add(Node("r", "ReLU", ["input"]))
        g.add(Node("output", "Output", ["r"]))
        prof = profile_activations(g, mq.gen_images(4, (1, 2, 2), 3))
        assert prof.for_node("r").min >= 0.0

    def test_zero_weights_degenerate_histogram(self):
        g = Graph("z")
        g.add(Node("input", "Input", attrs={"shape": [1, 2, 2]}))
        g.add(Node("c", "Conv2d", ["input"], attrs={"stride": 1, "padding": 0},
                   weights={"weight": Tensor.f32(np.zeros((1, 1, 1, 1))),
                            "bias": Tensor.f32(np.zeros(1))}))
        g.add(Node("output", "Output", ["c"]))
        prof = profile_activations(g, np.zeros((2, 1, 2, 2), np.float32))
        assert state(prof.for_node("c")) == (0.0, 0.0, 8)

    def test_pass_counter_equals_image_count(self, mininet):
        ex = mq.Executor()
        images = mq.gen_images(10, (3, 16, 16), 5)
        prof = profile_activations(mininet, images, executor=ex)
        assert prof.image_count == 10
        assert ex.passes == 10

    def test_covers_graph_including_input(self, mininet, mininet_calib):
        for node in mininet.nodes:
            if node.kind != "Output":
                assert mininet_calib.for_node(node.id) is mininet_calib.profiles[node.id]
        assert mininet.input_node.id in mininet_calib.profiles

    def test_empty_set_rejected(self, mininet):
        with pytest.raises(EmptyCalibrationSet):
            profile_activations(mininet, np.zeros((0, 3, 16, 16), np.float32))

    def test_save_load_round_trip(self, mininet_calib, tmp_path):
        mininet_calib.save(tmp_path / "calib.json")
        back = CalibrationProfile.load(tmp_path / "calib.json")
        back.save(tmp_path / "calib2.json")
        assert (tmp_path / "calib.json").read_bytes() == (tmp_path / "calib2.json").read_bytes()
        assert back.image_count == mininet_calib.image_count
        assert back.model_digest == ""

    @pytest.mark.parametrize("model", ["", "ab" * 32])
    def test_saved_document_is_the_indented_one(self, mininet_calib, tmp_path, model):
        """The compact file parses to the document an indent-1 writer would
        write, plus the `model` key when the digest is known, and is that
        document's compact sorted-key text byte for byte."""
        prof = CalibrationProfile(mininet_calib.profiles, mininet_calib.image_count, model)
        prof.save(tmp_path / "calib.json")
        doc = {"image_count": prof.image_count,
               "nodes": {nid: {"min": p.min, "max": p.max, "total": p.total}
                         for nid, p in sorted(prof.profiles.items())}}
        if model:
            doc["model"] = model
        old = json.loads(json.dumps(doc, indent=1, sort_keys=True))
        text = (tmp_path / "calib.json").read_text()
        assert json.loads(text) == old
        assert text == json.dumps(old, sort_keys=True, separators=(",", ":"))
        assert CalibrationProfile.load(tmp_path / "calib.json").model_digest == model


class TestHistogramLayout:
    """A calib.json written with per-node histograms loads to the same
    profile; a node record without min, max or total does not."""

    @pytest.mark.parametrize("model", ["", "ab" * 32])
    def test_old_layout_gives_the_same_qparams(self, mininet_calib, tmp_path, model):
        CalibrationProfile(mininet_calib.profiles, mininet_calib.image_count, model).save(
            tmp_path / "new.json")
        doc = json.loads((tmp_path / "new.json").read_text())
        (tmp_path / "old.json").write_text(json.dumps(histogram_layout(doc), indent=1, sort_keys=True))
        new = CalibrationProfile.load(tmp_path / "new.json")
        old = CalibrationProfile.load(tmp_path / "old.json")
        assert (old.image_count, old.model_digest) == (new.image_count, model)
        assert old.profiles.keys() == new.profiles.keys() == mininet_calib.profiles.keys()
        for nid, r in new.profiles.items():
            assert state(old.profiles[nid]) == state(r) == state(mininet_calib.profiles[nid])
            assert activation_qparams(old.profiles[nid]) == activation_qparams(r)
        old.save(tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == (tmp_path / "new.json").read_bytes()

    @pytest.mark.parametrize("key", ["min", "max", "total"])
    def test_record_without_a_range_key_is_rejected(self, mininet_calib, tmp_path, key):
        mininet_calib.save(tmp_path / "calib.json")
        doc = json.loads((tmp_path / "calib.json").read_text())
        del doc["nodes"]["fc"][key]
        (tmp_path / "calib.json").write_text(json.dumps(doc))
        with pytest.raises(MissingCalibration, match="'fc'"):
            CalibrationProfile.load(tmp_path / "calib.json")


class TestActivationQparams:
    def test_full_byte_range(self):
        qp = activation_qparams(profile_of([0.0, 255.0]))
        assert qp.step == 1.0
        assert qp.zero_point == -128  # min maps to the bottom of the int8 range
        assert not qp.symmetric

    def test_symmetric_unit_range(self):
        qp = activation_qparams(profile_of([-1.0, 1.0]))
        assert np.isclose(qp.step, 2.0 / 255.0)
        assert qp.zero_point == 0

    @pytest.mark.parametrize("value", [0.3, 500.0, -2.5])
    def test_constant_range_round_trips(self, value):
        qp = activation_qparams(profile_of(np.full(4, value, np.float32)))
        x = np.array([value], np.float32)
        back = mq.dequantize(mq.quantize_affine(x, qp)).data[0]
        assert abs(float(back) - float(x[0])) <= qp.step / 2 + abs(value) * 2.0 ** -23
        assert mq.dequantize(mq.quantize_affine(np.zeros(1, np.float32), qp)).data[0] == 0.0

    def test_all_zero_range_keeps_unit_step(self):
        qp = activation_qparams(profile_of([0.0, 0.0]))
        assert (qp.step, qp.zero_point) == (1.0, 0)

    def test_zero_exactly_representable(self):
        for vals in ([-1.0, 1.0], [0.0, 10.0], [0.2, 0.9], [-5.0, -1.0]):
            qp = activation_qparams(profile_of(vals))
            assert mq.dequantize(mq.quantize_affine(np.zeros(1, np.float32), qp)).data[0] == 0.0
            assert -128 <= qp.zero_point <= 127

    def test_saturation_exact_at_range_edges(self):
        edges = np.array([-0.7, 2.3], np.float32)  # f32 like real activations
        qp = activation_qparams(profile_of(edges))
        q = mq.quantize_affine(edges, qp)
        assert q.data[0] == qp.qmin and q.data[1] == qp.qmax

    @given(st.floats(-1e4, 1e4), st.floats(1e-3, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_bound_for_in_range_values(self, lo, width):
        hi = lo + width
        qp = activation_qparams(profile_of([lo, hi]))
        xs = np.linspace(lo, hi, 257).astype(np.float32)
        back = mq.dequantize(mq.quantize_affine(xs, qp)).data
        # step/2 from rounding plus one f32 ulp from storing the result
        bound = qp.step / 2 + max(abs(lo), abs(hi)) * 2.0 ** -23 + 1e-12
        assert np.abs(back - xs.astype(np.float64)).max() <= bound

    def test_empty_profile_rejected(self):
        with pytest.raises(EmptyProfile):
            activation_qparams(RangeProfile())


class TestWeightQparams:
    def test_unit_max(self):
        qp = weight_qparams(np.array([-1.0, 0.5, 1.0], np.float32))
        assert np.isclose(qp.step, 1.0 / 127.0)
        assert qp.zero_point == 0 and qp.symmetric

    def test_all_zero_convention(self):
        assert weight_qparams(np.zeros(4, np.float32)).step == 1.0

    def test_single_value(self):
        qp = weight_qparams(np.array([-2.54], np.float32))
        assert np.isclose(qp.step, 2.54 / 127.0)
        assert np.isclose(qp.step, 0.02)

    @given(st.lists(st.floats(-100, 100, width=32), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_max_element_never_saturates(self, values):
        w = np.asarray(values, np.float32)
        qp = weight_qparams(w)
        q = mq.quantize_affine(w, qp)
        assert np.abs(q.data).max() <= 127
        if np.abs(w).max() > 0:
            assert np.abs(q.data[np.argmax(np.abs(w))]) == 127

    def test_quantized_weights_in_symmetric_range(self, mininet):
        for n in mininet.nodes:
            if "weight" in n.weights:
                q = mq.quantize_affine(n.weights["weight"], weight_qparams(n.weights["weight"]))
                assert q.data.min() >= -127 and q.data.max() <= 127
