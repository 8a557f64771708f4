import json

import numpy as np
import pytest

import mixquant as mq
from mixquant.cli import main
from mixquant.errors import CorruptBlob, EmptyImageBatch, FormatVersionMismatch, InvalidAttribute, UnknownArch
from mixquant.ir import Graph, Node, QuantParams, Tensor
from mixquant.model_io import Lcg, gen_synthetic, load_labels, save_labels, scale_node_weights

from conftest import graph_signature, run_f32


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
            out, _ = run_f32(g, mq.gen_images(1, shape, 5))
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
        a, _ = ex.run_quantized(qg, x)
        b, _ = ex.run_quantized(loaded, x)
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
               weights={"weight": Tensor.i8(np.ones((1, 1, 1, 1)), QuantParams(1.0, 0, symmetric=True))}))
    g.add(Node("relu", "ReLU", ["q"], precision=8, attrs={"out_qparams": MADE}))
    g.add(Node("dq", "Dequantize", ["q"]))
    g.add(Node("add", "Add", ["conv", "relu"], precision=8, attrs={"out_qparams": MADE}))
    g.add(Node("dq_add", "Dequantize", ["add"]))
    g.add(Node("output", "Output", ["dq_add"]))
    return g


class TestCodesQParams:
    def test_readers_use_the_qparams_codes_carry(self):
        x = Tensor.f32(np.array([[[[0.5, 1.0], [1.5, 2.0]]]], np.float32))
        y, trace = mq.Executor().run_quantized(codes_graph(), x, capture=["conv", "relu", "dq"])
        for nid in ("conv", "relu", "dq"):
            np.testing.assert_allclose(trace.outputs[nid].data.ravel(), [0.5, 1.0, 1.5, 2.0], err_msg=nid)
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
