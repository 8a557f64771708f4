import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixquant as mq
from mixquant import model_io
from mixquant.cli import main
from mixquant.errors import CorruptBlob, EmptyImageBatch, FormatVersionMismatch, InvalidAttribute, UnknownArch
from mixquant.ir import Graph, Node, QuantParams, Tensor
from mixquant.model_io import Lcg, gen_synthetic, load_labels, save_labels, scale_node_weights

from conftest import graph_signature, observed, run_f32


class TestLcg:
    def test_pinned_recurrence(self):
        rng = Lcg(0)
        first = rng.next_u64()
        # state0 = 0 ^ 0x9E3779B97F4A7C15; state1 = state0 * mul + inc (mod 2^64)
        expected = (0x9E3779B97F4A7C15 * 6364136223846793005 + 1442695040888963407) % 2**64
        assert first == expected

    def test_uniform_range_and_determinism(self):
        a = Lcg(99).uniform(-1.0, 1.0, (1000,))
        b = Lcg(99).uniform(-1.0, 1.0, (1000,))
        assert np.array_equal(a, b)
        assert a.min() >= -1.0 and a.max() < 1.0
        assert abs(a.mean()) < 0.1

    @staticmethod
    def stepwise(rng: Lcg, lo: float, hi: float, n: int) -> np.ndarray:
        """One next_u64() call per value, lo + (hi - lo) * (top 53 bits / 2**53)."""
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            out[i] = (rng.next_u64() >> 11) / float(1 << 53)
        return lo + (hi - lo) * out

    @settings(max_examples=30, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(-2**64, -1), st.just(2**64 - 1)),
           size=st.sampled_from([0, 1, 4095, 4096, 4097, 3 * 4096 + 1,
                                 (2, 3, 4, 5), (7, 1, 3, 3), (0, 3, 2, 2), (3, 3, 16, 16)]),
           lo=st.sampled_from([0.0, -1.0, -0.25]), hi=st.sampled_from([1.0, 0.125]))
    def test_array_draw_is_the_stepwise_stream(self, seed, size, lo, hi):
        rng, ref = Lcg(seed), Lcg(seed)
        got = rng.uniform(lo, hi, size)
        want = self.stepwise(ref, lo, hi, int(np.prod(size))).reshape(size)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.state == ref.state
        assert rng.uniform(lo, hi, 1).tobytes() == ref.uniform(lo, hi, 1).tobytes()  # a one-value draw continues the stream
        assert rng.uniform(lo, hi, 5).tobytes() == self.stepwise(ref, lo, hi, 5).tobytes()

    def test_jump_tables_keep_a_fixed_size(self):
        Lcg(7).uniform(0.0, 1.0, 10 * 4096)
        assert model_io._JUMP_A.shape == model_io._JUMP_C.shape == (4096,)


def weights_digest(g: Graph) -> str:
    """sha256 of the weights in save_model's order, which is weights.bin."""
    return hashlib.sha256(b"".join(t.data.tobytes() for n in g.nodes
                                   for _, t in sorted(n.weights.items()))).hexdigest()


class TestPinnedStream:
    """Any change to the generator moves these digests."""

    @pytest.mark.parametrize("arch, digest", [
        ("mininet", "9daa864927bd668f220d4357ab775a9c6c1033ad94c9a9f074298406fa12ae70"),
        ("mini_resnet", "fee6889452acfc52db479202cab00904a3f6da624e93d4d6a14e308789d21515"),
        ("mini_mobilenet", "00fcded93e5dfd9f31c7b2d46fef56655489c10761815cb11776a8e7970761a2"),
    ])
    def test_synthetic_weights(self, arch, digest, tmp_path):
        g = gen_synthetic(arch, 42)
        assert weights_digest(g) == digest
        mq.save_model(g, tmp_path)
        assert hashlib.sha256((tmp_path / "weights.bin").read_bytes()).hexdigest() == digest

    def test_images(self):
        images = mq.gen_images(16, (3, 16, 16), 43)
        assert (hashlib.sha256(images.tobytes()).hexdigest()
                == "7876beff871fefbdb799d54f8e8324d8f6367168e08fa2d9b98400a3d01ece50")


class TestGenSynthetic:
    def test_deterministic_bit_exact(self):
        assert graph_signature(gen_synthetic("mininet", 42)) == graph_signature(gen_synthetic("mininet", 42))

    def test_seeds_differ(self):
        assert graph_signature(gen_synthetic("mininet", 42)) != graph_signature(gen_synthetic("mininet", 43))

    def test_unknown_arch(self):
        with pytest.raises(UnknownArch):
            gen_synthetic("resnet152", 1)

    def test_mininet_topology(self, mininet):
        kinds = [n.kind for n in mininet.nodes]
        assert kinds.count("Conv2d") == 8
        assert kinds.count("Add") == 1
        assert kinds.count("GlobalAvgPool") == 1 and kinds.count("Gemm") == 1
        assert kinds.count("Softmax") == 1
        assert tuple(mininet.input_node.attrs["shape"]) == (3, 16, 16)
        assert mininet.node("fc").weights["weight"].shape[0] == 10

    def test_mini_mobilenet_has_depthwise(self):
        g = gen_synthetic("mini_mobilenet", 42)
        assert sum(1 for n in g.nodes if n.kind == "DepthwiseConv2d") >= 4

    def test_all_archs_validate_and_execute(self, all_archs):
        for name, g in all_archs.items():
            g.validate()
            shape = tuple(int(d) for d in g.input_node.attrs["shape"])
            out = run_f32(g, mq.gen_images(1, shape, 5))
            assert out.shape == (1, 10)
            assert np.isclose(out.data.sum(), 1.0, atol=1e-5)  # softmax head

    def test_scale_node_weights_sparse(self, mininet):
        g = scale_node_weights(mininet, "b6_conv", 50.0, stride=64)
        w0 = mininet.node("b6_conv").weights["weight"].data.ravel()
        w1 = g.node("b6_conv").weights["weight"].data.ravel()
        assert np.allclose(w1[::64], w0[::64] * 50.0)
        mask = np.ones(w0.size, dtype=bool)
        mask[::64] = False
        assert np.array_equal(w1[mask], w0[mask])


class TestModelRoundTrip:
    def test_save_load_bit_exact(self, mininet, tmp_path):
        mq.save_model(mininet, tmp_path / "m")
        loaded = mq.load_model(tmp_path / "m")
        assert graph_signature(loaded) == graph_signature(mininet)
        mq.save_model(loaded, tmp_path / "m2")
        assert (tmp_path / "m/manifest.json").read_bytes() == (tmp_path / "m2/manifest.json").read_bytes()
        assert (tmp_path / "m/weights.bin").read_bytes() == (tmp_path / "m2/weights.bin").read_bytes()

    def test_quantized_graph_round_trip(self, mininet, mininet_calib, tmp_path):
        qg = mq.apply_mixed_precision(mininet, [], mininet_calib)
        mq.save_model(qg, tmp_path / "q")
        loaded = mq.load_model(tmp_path / "q")
        assert graph_signature(loaded) == graph_signature(qg)
        x = mq.Tensor.f32(mq.gen_images(1, (3, 16, 16), 3))
        ex = mq.Executor()
        a = ex.run_quantized(qg, x)
        b = ex.run_quantized(loaded, x)
        assert np.array_equal(a.data, b.data)

    def test_truncated_blob_file(self, mininet, tmp_path):
        mq.save_model(mininet, tmp_path / "m")
        raw = (tmp_path / "m/weights.bin").read_bytes()
        (tmp_path / "m/weights.bin").write_bytes(raw[:len(raw) // 2])
        with pytest.raises(CorruptBlob):
            mq.load_model(tmp_path / "m")

    def test_missing_blob_reference(self, mininet, tmp_path):
        mq.save_model(mininet, tmp_path / "m")
        manifest = json.loads((tmp_path / "m/manifest.json").read_text())
        victim = next(iter(manifest["blobs"]))
        del manifest["blobs"][victim]
        (tmp_path / "m/manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptBlob):
            mq.load_model(tmp_path / "m")

    def test_bad_blob_length(self, mininet, tmp_path):
        mq.save_model(mininet, tmp_path / "m")
        manifest = json.loads((tmp_path / "m/manifest.json").read_text())
        victim = next(iter(manifest["blobs"]))
        manifest["blobs"][victim]["length"] += 4
        (tmp_path / "m/manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptBlob):
            mq.load_model(tmp_path / "m")

    @pytest.mark.parametrize("dtype", ["f16", "i32"])
    def test_unsupported_blob_dtype(self, mininet, tmp_path, dtype):
        mq.save_model(mininet, tmp_path / "m")
        manifest = json.loads((tmp_path / "m/manifest.json").read_text())
        manifest["blobs"]["b1_conv.weight"]["dtype"] = dtype
        (tmp_path / "m/manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptBlob, match=f"'b1_conv.weight' has unsupported dtype '{dtype}'"):
            mq.load_model(tmp_path / "m")

    def test_format_version_mismatch(self, mininet, tmp_path):
        mq.save_model(mininet, tmp_path / "m")
        manifest = json.loads((tmp_path / "m/manifest.json").read_text())
        manifest["format_version"] = 999
        (tmp_path / "m/manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatVersionMismatch):
            mq.load_model(tmp_path / "m")


    @pytest.mark.parametrize("quantized, indent1_sha256", [
        (False, "d55abbaefe328d447eb2681dc59a2a22c685e1a56cd185b657774974d6341f61"),
        (True, "7e391f3aa86c4bcceb5e0f8acf566f49411846b06cf174c1ed99a8fb9c1db676")])
    def test_compact_manifest(self, mininet, mininet_calib, tmp_path, quantized, indent1_sha256):
        """The manifest is sorted-key JSON with no whitespace. It parses to the
        document that the earlier indent-1 writer gave (its bytes are pinned),
        and a manifest in that layout still loads to an equal graph."""
        graph = mq.apply_mixed_precision(mininet, [], mininet_calib) if quantized else mininet
        mq.save_model(graph, tmp_path / "m")
        text = (tmp_path / "m/manifest.json").read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, separators=(",", ":"), sort_keys=True)
        assert not any(c.isspace() for c in text)
        indent1 = json.dumps(doc, indent=1, sort_keys=True)
        assert hashlib.sha256(indent1.encode()).hexdigest() == indent1_sha256
        (tmp_path / "m/manifest.json").write_text(indent1)
        assert graph_signature(mq.load_model(tmp_path / "m")) == graph_signature(graph)


def edited_manifest(graph, path, edit):
    """Save the graph under `path`, apply edit(manifest) to its manifest."""
    mq.save_model(graph, path)
    manifest = json.loads((path / "manifest.json").read_text())
    edit(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))
    return path


def set_attr(node_id, key, value):
    def edit(manifest):
        next(n for n in manifest["nodes"] if n["id"] == node_id)["attrs"][key] = value
    return edit


class TestManifestAttributes:
    @pytest.mark.parametrize("node_id, key, value", [
        ("pool1", "kernel", None), ("pool1", "kernel", 0), ("pool1", "kernel", [2, 2, 2]),
        ("pool1", "kernel", "2"), ("pool1", "kernel", 2.0), ("pool1", "kernel", True),
        ("pool1", "stride", -1), ("pool1", "stride", [2]), ("pool1", "padding", 2),
        ("pool2", "padding", [0, -1]), ("stem_conv", "stride", None), ("stem_conv", "stride", 0),
        ("stem_conv", "padding", [1, 1, 1]), ("input", "shape", [3, 16]),
        ("input", "shape", [3, 0, 16]), ("input", "shape", None), ("stem_bn", "epsilon", None),
        ("stem_bn", "epsilon", -1e-5), ("stem_bn", "epsilon", "1e-5"),
        ("stem_conv", "fused_relu", 1), ("stem_conv", "profile_id", 7),
    ])
    def test_bad_attribute_is_typed(self, all_archs, tmp_path, node_id, key, value):
        path = edited_manifest(all_archs["mini_resnet"], tmp_path / "m", set_attr(node_id, key, value))
        with pytest.raises(InvalidAttribute, match=node_id):
            mq.load_model(path)

    @pytest.mark.parametrize("node_id, key, value", [
        ("pool1", "stride", None), ("pool1", "kernel", [2, 2]), ("pool1", "padding", [1, 0]),
        ("stem_conv", "stride", [1, 2]), ("stem_bn", "epsilon", 0), ("stem_conv", "fused_relu", False),
        ("stem_conv", "padding", 3),  # a conv's window always holds some input
    ])
    def test_valid_variants_load(self, all_archs, tmp_path, node_id, key, value):
        graph = mq.load_model(edited_manifest(all_archs["mini_resnet"], tmp_path / "m",
                                              set_attr(node_id, key, value)))
        assert graph.node(node_id).attrs[key] == value

    @pytest.mark.parametrize("arch, blob, shape, what", [
        ("mini_resnet", "stem_bn.gamma", [15], "differ in shape"),
        ("mini_mobilenet", "m1_dw_dwconv.weight", [16, 2, 3, 3], "more than one filter per channel"),
    ])
    def test_node_local_weight_shape(self, all_archs, tmp_path, arch, blob, shape, what):
        """A BatchNorm parameter of another length than its siblings, and a
        depthwise weight with two filters per channel, fail at load rather
        than at the first pass."""
        def reshape(manifest):
            manifest["blobs"][blob].update(shape=shape, length=4 * int(np.prod(shape)))
        with pytest.raises(InvalidAttribute, match=what):
            mq.load_model(edited_manifest(all_archs[arch], tmp_path / "m", reshape))

    def test_weight_rank(self, mininet, tmp_path):
        def flatten_fc(manifest):
            manifest["blobs"]["fc.weight"]["shape"] = [320]
        with pytest.raises(InvalidAttribute, match="rank"):
            mq.load_model(edited_manifest(mininet, tmp_path / "m", flatten_fc))

    def test_structure(self, mininet, tmp_path):
        def drop_add_input(manifest):
            next(n for n in manifest["nodes"] if n["id"] == "b4_add")["inputs"].pop()
        with pytest.raises(InvalidAttribute, match="2 inputs"):
            mq.load_model(edited_manifest(mininet, tmp_path / "a", drop_add_input))

        def rename_kind(manifest):
            manifest["nodes"][1]["kind"] = "Conv3d"
        with pytest.raises(InvalidAttribute, match="unknown kind"):
            mq.load_model(edited_manifest(mininet, tmp_path / "b", rename_kind))

        def duplicate_id(manifest):
            manifest["nodes"][2]["id"] = manifest["nodes"][1]["id"]
        with pytest.raises(InvalidAttribute, match="twice"):
            mq.load_model(edited_manifest(mininet, tmp_path / "c", duplicate_id))

        def second_output(manifest):
            manifest["nodes"][-2]["kind"] = "Output"
        with pytest.raises(InvalidAttribute, match="one Input and one Output"):
            mq.load_model(edited_manifest(mininet, tmp_path / "d", second_output))

    def test_bad_quant_params(self, mininet, mininet_calib, tmp_path):
        qg = mq.apply_mixed_precision(mininet, [], mininet_calib)
        quantize_id = next(n.id for n in qg.nodes if n.kind == "Quantize")
        dequantize_id = next(n.id for n in qg.nodes if n.kind == "Dequantize")

        def bad_step(manifest):
            node = next(n for n in manifest["nodes"] if n["id"] == quantize_id)
            node["attrs"]["out_qparams"]["__qparams__"]["step"] = -1.0
        with pytest.raises(InvalidAttribute, match="quantization parameters"):
            mq.load_model(edited_manifest(qg, tmp_path / "a", bad_step))

        # the key set is exact: a record that still names a bit width is malformed
        with_bits = {"__qparams__": {"bit_width": 8, "step": 1.0, "zero_point": 0, "symmetric": False}}
        for i, node_id in enumerate([quantize_id, "b1_conv"]):
            with pytest.raises(InvalidAttribute, match="quantization parameters"):
                mq.load_model(edited_manifest(qg, tmp_path / f"w{i}",
                                              set_attr(node_id, "out_qparams", with_bits)))

        # int8 nodes and Quantize, and only they, record the qparams of their codes
        plain = {"__qparams__": {"step": 1.0, "zero_point": 0, "symmetric": False}}
        for i, (node_id, value) in enumerate([(quantize_id, None), ("b1_conv", 0.5),
                                              (dequantize_id, plain), ("softmax", plain)]):
            with pytest.raises(InvalidAttribute, match="only they"):
                mq.load_model(edited_manifest(qg, tmp_path / f"o{i}",
                                              set_attr(node_id, "out_qparams", value)))

    def test_parent_format_exits_3(self, mininet, mininet_calib, tmp_path):
        """A quantized manifest that records every qparams with its bit width,
        the Quantize's under `qparams`, an int8 reader's copies under
        `in_qparams` and a Dequantize's copy, as written before each value's
        qparams were recorded once, is rejected."""
        qg = mq.apply_mixed_precision(mininet, [], mininet_calib)

        def old_format(manifest):
            def old(attr):
                return {"__qparams__": {"bit_width": 8, **attr["__qparams__"]}}
            made = {n["id"]: n["attrs"].get("out_qparams") for n in manifest["nodes"]}
            for n in manifest["nodes"]:
                if n["kind"] == "Quantize":
                    n["attrs"]["qparams"] = old(n["attrs"].pop("out_qparams"))
                elif n["kind"] == "Dequantize":
                    n["attrs"]["qparams"] = old(made[n["inputs"][0]])
                elif n["precision"] == 8:
                    n["attrs"]["out_qparams"] = old(n["attrs"]["out_qparams"])
                    n["attrs"]["in_qparams"] = [old(made[src]) for src in n["inputs"]]
                for ref in n["weights"].values():
                    if "qparams" in ref:
                        ref["qparams"]["bit_width"] = 8
        path = edited_manifest(qg, tmp_path / "model", old_format)
        with pytest.raises(InvalidAttribute, match="bit_width"):
            mq.load_model(path)
        assert main(["evaluate", "--model", str(path), "--ref-model", str(tmp_path),
                     "--images", "x", "--labels", "x", "--out", str(tmp_path / "r.json")]) == 3


MADE = QuantParams(0.05, 10)


def codes_graph():
    """Quantize(MADE) codes read by an int8 Conv2d, an int8 ReLU and a
    Dequantize, none of which records them."""
    g = Graph("codes")
    g.add(Node("input", "Input", attrs={"shape": [1, 2, 2]}))
    g.add(Node("q", "Quantize", ["input"], attrs={"out_qparams": MADE}))
    g.add(Node("conv", "Conv2d", ["q"], precision=8,
               attrs={"stride": 1, "padding": 0, "out_qparams": MADE},
               weights={"weight": Tensor(np.ones((1, 1, 1, 1), np.int8),
                                         QuantParams(1.0, 0, symmetric=True))}))
    g.add(Node("relu", "ReLU", ["q"], precision=8, attrs={"out_qparams": MADE}))
    g.add(Node("dq", "Dequantize", ["q"]))
    g.add(Node("add", "Add", ["conv", "relu"], precision=8, attrs={"out_qparams": MADE}))
    g.add(Node("dq_add", "Dequantize", ["add"]))
    g.add(Node("output", "Output", ["dq_add"]))
    return g


class TestCodesQParams:
    def test_readers_use_the_qparams_codes_carry(self):
        x = Tensor.f32(np.array([[[[0.5, 1.0], [1.5, 2.0]]]], np.float32))
        y, trace = observed(mq.Executor().run_quantized, codes_graph(), x, ["conv", "relu", "dq"])
        for nid in ("conv", "relu", "dq"):
            np.testing.assert_allclose(trace[nid].data.ravel(), [0.5, 1.0, 1.5, 2.0], err_msg=nid)
        np.testing.assert_allclose(y.data.ravel(), [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("node_id, inputs, reads", [
        ("softmax", ["fc"], "as float"),        # the Dequantize bypassed
        ("b1_conv", ["input"], "as int8 codes"),  # the Quantize bypassed
    ])
    def test_load_rejects_codes_on_a_float_edge(self, mininet, mininet_calib, tmp_path,
                                                node_id, inputs, reads):
        qg = mq.apply_mixed_precision(mininet, [], mininet_calib)

        def rewire(manifest):
            next(n for n in manifest["nodes"] if n["id"] == node_id)["inputs"] = inputs
        with pytest.raises(InvalidAttribute, match=f"{node_id!r} reads {inputs[0]!r} {reads}"):
            mq.load_model(edited_manifest(qg, tmp_path / "m", rewire))


class TestImageIo:
    def test_round_trip(self, tmp_path):
        imgs = mq.gen_images(5, (3, 4, 4), 11)
        mq.save_images(imgs, tmp_path / "images.bin")
        back = mq.load_images(tmp_path / "images.bin")
        assert np.array_equal(imgs, back)

    def test_gen_images_deterministic(self):
        assert np.array_equal(mq.gen_images(3, (1, 2, 2), 5), mq.gen_images(3, (1, 2, 2), 5))

    def test_gen_images_empty_rejected(self):
        with pytest.raises(EmptyImageBatch):
            mq.gen_images(0, (1, 2, 2), 5)

    def test_zero_count_rejected(self, tmp_path):
        (tmp_path / "images.bin").write_bytes(struct.pack("<4I", 0, 3, 16, 16))
        with pytest.raises(EmptyImageBatch, match="holds no images"):
            mq.load_images(tmp_path / "images.bin")

    def test_truncated_image_file(self, tmp_path):
        imgs = mq.gen_images(2, (1, 2, 2), 1)
        mq.save_images(imgs, tmp_path / "images.bin")
        raw = (tmp_path / "images.bin").read_bytes()
        (tmp_path / "images.bin").write_bytes(raw[:-3])
        with pytest.raises(CorruptBlob):
            mq.load_images(tmp_path / "images.bin")

    def test_labels_round_trip(self, tmp_path):
        save_labels([3, 1, 4], tmp_path / "labels.json")
        assert load_labels(tmp_path / "labels.json") == [3, 1, 4]
