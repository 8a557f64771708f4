import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixquant as mq
from mixquant.calibration import (
    CalibrationProfile,
    HistogramProfile,
    activation_qparams,
    profile_activations,
    weight_qparams,
)
from mixquant.errors import EmptyCalibrationSet, EmptyProfile, NonFiniteValue
from mixquant.ir import Graph, Node, Tensor
from mixquant.model_io import Lcg


def profile_of(values, bins=2048):
    h = HistogramProfile(bins)
    h.update(np.asarray(values, dtype=np.float64))
    return h


class TestHistogramProfile:
    def test_min_max_total(self):
        h = profile_of([-1.5, 0.0, 3.0, 2.0])
        assert (h.min, h.max, h.total) == (-1.5, 3.0, 4)
        assert h.counts.sum() == 4

    def test_update_widens_monotonically(self):
        h = profile_of([0.5])
        lo, hi = h.min, h.max
        h.update(np.array([2.0, -3.0]))
        assert h.min <= lo and h.max >= hi
        assert h.counts.sum() == h.total == 3

    def test_range_growth_preserves_counts(self):
        h = profile_of(np.linspace(-1, 1, 1000))
        before = h.total
        h.update(np.array([100.0]))
        assert h.counts.sum() == before + 1
        assert h.hist_range >= 100.0

    def test_merge_exact_and_order_independent(self):
        rng = Lcg(31)
        parts = [profile_of(rng.uniform(-(2 ** k), 2 ** k, (100,))) for k in range(5)]
        forward = parts[0]
        for p in parts[1:]:
            forward = forward.merge(p)
        backward = parts[-1]
        for p in reversed(parts[:-1]):
            backward = p.merge(backward)
        assert np.array_equal(forward.counts, backward.counts)
        assert (forward.min, forward.max, forward.total) == (backward.min, backward.max, backward.total)
        assert forward.hist_range == backward.hist_range

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_merge_commutes(self, a, b):
        pa, pb = profile_of(a, bins=64), profile_of(b, bins=64)
        ab, ba = pa.merge(pb), pb.merge(pa)
        assert np.array_equal(ab.counts, ba.counts)
        assert ab.min == ba.min and ab.max == ba.max

    def test_percentile_range_clips_outlier(self):
        h = profile_of(np.concatenate([np.linspace(-1, 1, 998), [1000.0, -1000.0]]))
        lo, hi = h.percentile_range(0.01)
        assert -2.0 < lo < hi < 2.0

    def test_json_round_trip(self):
        h = profile_of([-0.5, 0.25, 3.0])
        back = HistogramProfile.from_json(h.to_json())
        assert np.array_equal(back.counts, h.counts)
        assert (back.min, back.max, back.total, back.hist_range) == (h.min, h.max, h.total, h.hist_range)


class AddAtProfile(HistogramProfile):
    """The oracle: one bin increment per value through np.add.at."""

    def update(self, values) -> None:
        v = np.asarray(values, dtype=np.float64).ravel()
        self.total += v.size
        self._grow_to(max(-float(v.min()), float(v.max())))
        width = 2.0 * self.hist_range / self.bins
        idx = np.clip(((v + self.hist_range) / width).astype(np.int64), 0, self.bins - 1)
        np.add.at(self.counts, idx, 1)


@st.composite
def update_batches(draw):
    """A bin count and 1-4 value batches whose range grows or shrinks from
    batch to batch: random values, bin edges of a [-R, R] grid including
    +-R itself, or a constant; each float64 or float32."""
    bins = draw(st.sampled_from([4, 16, 2048]))
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        r = 2.0 ** draw(st.integers(-3, 8))
        kind = draw(st.sampled_from(["random", "edges", "constant"]))
        if kind == "edges":
            j = draw(st.lists(st.integers(0, bins), min_size=1, max_size=16))
            v = -r + np.asarray(j) * (2 * r / bins)
        elif kind == "constant":
            v = np.full(draw(st.integers(1, 8)), draw(st.floats(-r, r)))
        else:
            v = np.asarray(draw(st.lists(st.floats(-r, r), min_size=1, max_size=64)))
        batches.append(v.astype(np.float32) if draw(st.booleans()) else v)
    return bins, batches


class TestBincountUpdate:
    @given(update_batches())
    @settings(max_examples=200, deadline=None)
    def test_counts_equal_add_at(self, case):
        bins, batches = case
        h, oracle = HistogramProfile(bins), AddAtProfile(bins)
        for v in batches:
            h.update(v)
            oracle.update(v)
            assert h.hist_range == oracle.hist_range
            assert h.counts.dtype == np.int64
            assert np.array_equal(h.counts, oracle.counts)
        assert h.counts.sum() == h.total == sum(v.size for v in batches)


class TestNonFiniteUpdate:
    @staticmethod
    def state(h):
        return (h.counts.tolist(), h.min, h.max, h.total, h.hist_range)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("first", [True, False])
    def test_rejected_and_profile_unchanged(self, bad, first):
        h = HistogramProfile(64) if first else profile_of([-0.5, 0.25, 3.0], bins=64)
        before = self.state(h)
        with pytest.raises(NonFiniteValue):
            h.update(np.array([1.0, bad, -2.0]))
        assert self.state(h) == before

    def test_finite_extremes_accepted(self):
        h = profile_of([-1e300, 1e300], bins=64)
        assert (h.min, h.max, h.total) == (-1e300, 1e300, 2)


class TestProfileActivations:
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
        h = prof.for_node("c")
        assert h.min == h.max == 0.0
        assert (h.counts > 0).sum() == 1  # single hot bin

    def test_pass_counter_equals_image_count(self, mininet):
        ex = mq.Executor()
        images = mq.gen_images(10, (3, 16, 16), 5)
        prof = profile_activations(mininet, images, executor=ex)
        assert prof.image_count == 10
        assert ex.passes == 10

    def test_covers_graph_including_input(self, mininet, mininet_calib):
        assert mininet_calib.covers(mininet)
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
        """The compact file parses to the document the indent-1 writer wrote,
        plus the `model` key when the digest is known, and is that document's
        compact sorted-key text byte for byte."""
        prof = CalibrationProfile(mininet_calib.profiles, mininet_calib.image_count,
                                  mininet_calib.bins, model)
        prof.save(tmp_path / "calib.json")
        doc = {"image_count": prof.image_count, "bin_count": prof.bins,
               "nodes": {nid: {"min": p.min, "max": p.max, "total": p.total,
                               "hist_range": p.hist_range, "bins": [int(c) for c in p.counts]}
                         for nid, p in sorted(prof.profiles.items())}}
        if model:
            doc["model"] = model
        old = json.loads(json.dumps(doc, indent=1, sort_keys=True))
        text = (tmp_path / "calib.json").read_text()
        assert json.loads(text) == old
        assert text == json.dumps(old, sort_keys=True, separators=(",", ":"))
        assert CalibrationProfile.load(tmp_path / "calib.json").model_digest == model


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

    def test_percentile_mode_tightens_step(self):
        h = profile_of(np.concatenate([np.linspace(-1, 1, 998), [1000.0, -1000.0]]))
        qp_minmax = activation_qparams(h, mode="minmax")
        qp_pct = activation_qparams(h, mode="percentile", p=0.01)
        assert qp_pct.step < qp_minmax.step

    def test_empty_profile_rejected(self):
        with pytest.raises(EmptyProfile):
            activation_qparams(HistogramProfile(64))


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
