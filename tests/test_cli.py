import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mixquant as mq
from mixquant import executor
from mixquant import cli, model_io, sensitivity
from mixquant.cli import (METHODS, evaluate_model, final_logit_sqnr, load_reference, main,
                          model_digest, reference_path, save_reference)
from mixquant.errors import CorruptBlob, MissingLabels, NonFiniteValue
from mixquant.fusion import discover_fusion_groups
from mixquant.quantizer import load_node_list
from mixquant.sensitivity import Reference, evaluate_accuracy, reference_pass

from conftest import histogram_layout


def run_pipeline(root: Path, seed=42, method="delta-mixup", targets="40",
                 calib_count=16, eval_count=16, extra_synth=()):
    root.mkdir(parents=True, exist_ok=True)
    d = str(root)
    assert main(["synth", "--arch", "mininet", "--seed", str(seed),
                 "--calib-count", str(calib_count), "--eval-count", str(eval_count),
                 "--out-dir", d, *extra_synth]) == 0
    assert main(["calibrate", "--model", f"{d}/model", "--images", f"{d}/calib_images.bin",
                 "--out", f"{d}/calib.json"]) == 0
    assert main(["analyze", "--model", f"{d}/model", "--calib", f"{d}/calib.json",
                 "--images", f"{d}/calib_images.bin", "--method", method,
                 "--out-list", f"{d}/sensitivity.txt", "--out-metrics", f"{d}/metrics.csv"]) == 0
    assert main(["quantize", "--model", f"{d}/model", "--calib", f"{d}/calib.json",
                 "--list", f"{d}/sensitivity.txt", "--target-reduction", targets,
                 "--out-dir", d]) == 0
    reports = []
    for t in targets.split(","):
        out = f"{d}/report{t}.json"
        assert main(["evaluate", "--model", f"{d}/q{float(t):g}/model", "--ref-model", f"{d}/model",
                     "--images", f"{d}/eval_images.bin", "--labels", f"{d}/labels.json",
                     "--out", out]) == 0
        reports.append(out)
    assert main(["report", "--runs", *reports, "--out", f"{d}/recovery_curve.csv"]) == 0
    return root


class TestPipeline:
    def test_full_pipeline_artifacts(self, tmp_path):
        d = run_pipeline(tmp_path / "run", targets="40")
        report = json.loads((d / "report40.json").read_text())
        assert report["bops"]["normalized_reduction_pct"] <= 40.0
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["qdq_count"] >= 2
        assert "digests" in report and "run" in report
        assert report["run"]["method"] == "delta_mixup"
        curve = (d / "recovery_curve.csv").read_text().splitlines()
        assert len(curve) == 2
        precision = json.loads((d / "q40/precision.json").read_text())
        assert set(precision["layers"].values()) <= {8, 32}

    def test_in_order_list_is_topo_group_order(self, tmp_path):
        d = run_pipeline(tmp_path / "run", method="in-order")
        graph = mq.load_model(d / "model")
        expected = [m for g in discover_fusion_groups(graph) for m in g.members]
        assert load_node_list(d / "sensitivity.txt") == expected

    def test_target_100_fully_quantized(self, tmp_path):
        d = run_pipeline(tmp_path / "run", targets="100")
        assert load_node_list(d / "q100/dequant_list.txt") == []
        report = json.loads((d / "report100.json").read_text())
        assert report["bops"]["normalized_reduction_pct"] == 100.0
        assert report["qdq_count"] == 2

    def test_rerun_byte_identical(self, tmp_path):
        a = run_pipeline(tmp_path / "a", targets="40,100")
        b = run_pipeline(tmp_path / "b", targets="40,100")
        for rel in ("model/manifest.json", "model/weights.bin", "calib.json",
                    "sensitivity.txt", "metrics.csv", "q40/model/manifest.json",
                    "q40/model/weights.bin", "q40/precision.json", "q40/dequant_list.txt",
                    "report40.json", "report100.json", "recovery_curve.csv"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def run_all_methods(root: Path, arch="mini_resnet", seed=5, count=12, targets="40,80"):
    """synth, calibrate, every analyze method, quantize, evaluate, report."""
    d = str(root)
    assert main(["synth", "--arch", arch, "--seed", str(seed), "--calib-count", str(count),
                 "--eval-count", str(count), "--out-dir", d]) == 0
    assert main(["calibrate", "--model", f"{d}/model", "--images", f"{d}/calib_images.bin",
                 "--out", f"{d}/calib.json"]) == 0
    reports = []
    for method in sorted(METHODS):
        m = f"{d}/{method}"
        extra = {"delta-mixup": ["--images", f"{d}/calib_images.bin", "--out-metrics", f"{m}.csv"],
                 "top1": ["--images", f"{d}/eval_images.bin", "--labels", f"{d}/labels.json",
                          "--top1-images", str(count)]}.get(method, [])
        assert main(["analyze", "--model", f"{d}/model", "--calib", f"{d}/calib.json",
                     "--method", method, "--out-list", f"{m}.txt", *extra]) == 0
        assert main(["quantize", "--model", f"{d}/model", "--calib", f"{d}/calib.json",
                     "--list", f"{m}.txt", "--target-reduction", targets, "--out-dir", m]) == 0
        for t in targets.split(","):
            reports.append(f"{m}/report{t}.json")
            assert main(["evaluate", "--model", f"{m}/q{t}/model", "--ref-model", f"{d}/model",
                         "--images", f"{d}/eval_images.bin", "--labels", f"{d}/labels.json",
                         "--out", reports[-1]]) == 0
    assert main(["report", "--runs", *reports, "--out", f"{d}/recovery_curve.csv"]) == 0
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestBatchSizeInvariance:
    def test_artifacts_equal_at_batch_1(self, tmp_path, monkeypatch):
        graph = mq.gen_synthetic("mini_resnet", 5)
        assert executor.batch_size(graph) > 1
        batched = run_all_methods(tmp_path / "batched")
        monkeypatch.setattr(executor, "ACTIVATION_BUDGET_BYTES", 1)
        assert executor.batch_size(graph) == 1
        single = run_all_methods(tmp_path / "single")
        assert len(batched) == 65
        assert batched.keys() == single.keys()
        for rel in batched:
            assert batched[rel] == single[rel], rel


# Values no attribute accepts, except where `accepted` says so.
CORRUPT_VALUES = [None, "2", 1.5, True, False, -1, 0, [], [1], [1, 2, 3], [[1], [1]], {"a": 1},
                  {"__qparams__": {"bit_width": 7, "step": 1.0, "zero_point": 0, "symmetric": False}},
                  {"__qparams__": {"bit_width": 8, "step": 1.0, "zero_point": 0, "symmetric": False}}]


def accepted(kind, key, value):
    """Whether `value` is a valid `key` for a node of `kind`."""
    if key == "stride" and kind in ("MaxPool", "AvgPool"):
        return value is None
    if key == "padding":
        return value == 0
    if key == "epsilon":
        return type(value) in (int, float) and value >= 0
    if key == "fused_relu":
        return type(value) is bool
    if key == "profile_id":
        return type(value) is str
    return False


@pytest.fixture(scope="module")
def corruptible_runs(tmp_path_factory):
    """Per arch, a synth model (read by calibrate) and a quantized model at
    the fused stage (read by evaluate), each with the command that reads it."""
    runs = {}
    for arch in ("mininet", "mini_resnet", "mini_mobilenet"):
        d = tmp_path_factory.mktemp(arch)
        assert main(["synth", "--arch", arch, "--seed", "1", "--calib-count", "2",
                     "--eval-count", "2", "--out-dir", str(d)]) == 0
        assert main(["calibrate", "--model", f"{d}/model", "--images", f"{d}/calib_images.bin",
                     "--out", f"{d}/calib.json"]) == 0
        assert main(["analyze", "--model", f"{d}/model", "--calib", f"{d}/calib.json",
                     "--method", "in-order", "--out-list", f"{d}/list.txt"]) == 0
        assert main(["quantize", "--model", f"{d}/model", "--calib", f"{d}/calib.json",
                     "--list", f"{d}/list.txt", "--target-reduction", "60", "--out-dir", str(d)]) == 0
        runs[arch, "model"] = (d, ["calibrate", "--model", "{model}", "--images",
                                   "{root}/calib_images.bin", "--out", "{out}/calib.json"])
        runs[arch, "q60/model"] = (d, ["evaluate", "--model", "{model}", "--ref-model", "{root}/model",
                                       "--images", "{root}/eval_images.bin", "--labels",
                                       "{root}/labels.json", "--out", "{out}/report.json"])
    return runs


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--arch", "resnet152", "--out-dir", "/tmp/x"])
        assert err.value.code == 2

    def test_missing_stage_is_3_with_hint(self, tmp_path, capsys):
        code = main(["quantize", "--model", str(tmp_path / "model"),
                     "--calib", str(tmp_path / "calib.json"),
                     "--list", str(tmp_path / "sensitivity.txt"),
                     "--target-reduction", "40", "--out-dir", str(tmp_path)])
        assert code == 3
        assert "synth" in capsys.readouterr().err

    def test_corrupt_model_is_3(self, tmp_path, capsys):
        d = tmp_path / "run"
        assert main(["synth", "--arch", "mininet", "--seed", "1", "--calib-count", "2",
                     "--eval-count", "2", "--out-dir", str(d)]) == 0
        blob = d / "model/weights.bin"
        blob.write_bytes(blob.read_bytes()[:10])
        code = main(["calibrate", "--model", str(d / "model"),
                     "--images", str(d / "calib_images.bin"), "--out", str(d / "calib.json")])
        assert code == 3

    @pytest.mark.parametrize("weights", ["0.6,0.3,0.1", "0.6", "0.6,x", ""])
    def test_bad_mixup_weights_is_2(self, tmp_path, weights):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--model", str(tmp_path / "model"), "--calib", str(tmp_path / "c.json"),
                  "--mixup-weights", weights, "--out-list", str(tmp_path / "s.txt")])
        assert err.value.code == 2

    @pytest.mark.parametrize("targets", ["150,-5", "40,100.5", "-0.1", "nan"])
    def test_target_reduction_out_of_range_is_2(self, tmp_path, targets):
        with pytest.raises(SystemExit) as err:
            main(["quantize", "--model", str(tmp_path / "model"), "--calib", str(tmp_path / "c.json"),
                  "--list", str(tmp_path / "s.txt"), "--target-reduction", targets,
                  "--out-dir", str(tmp_path / "out")])
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("analyze", "--top1-images", "0"), ("analyze", "--top1-images", "-2"),
        ("synth", "--scale-stride", "-1"), ("synth", "--scale-stride", "0"),
        ("synth", "--calib-count", "0"), ("synth", "--eval-count", "0"),
        ("synth", "--scale-factor", "nan"), ("synth", "--scale-factor", "inf"),
        ("synth", "--scale-factor", "-inf"),
        ("quantize", "--target-reduction", ","),
        ("analyze", "--mixup-weights", "nan,1"), ("analyze", "--mixup-weights", "0.5,inf"),
        ("analyze", "--mixup-weights", "-0.5,1"),
        ("calibrate", "--bins", "0"), ("calibrate", "--bins", "6"), ("calibrate", "--bins", "-4"),
    ])
    def test_bad_numeric_argument_is_2(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        args = {
            "synth": ["--arch", "mininet", "--out-dir", out],
            "calibrate": ["--model", tmp_path / "model", "--images", tmp_path / "i.bin",
                          "--out", out],
            "analyze": ["--model", tmp_path / "model", "--calib", tmp_path / "c.json",
                        "--method", "top1", "--images", tmp_path / "i.bin",
                        "--labels", tmp_path / "l.json", "--out-list", out],
            "quantize": ["--model", tmp_path / "model", "--calib", tmp_path / "c.json",
                         "--list", tmp_path / "s.txt", "--out-dir", out],
        }[command]
        with pytest.raises(SystemExit) as err:
            main([command, *map(str, args), f"{flag}={value}"])
        assert err.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_is_3(self, tmp_path, capsys, bad):
        d = tmp_path / "run"
        assert main(["synth", "--arch", "mininet", "--seed", "1", "--calib-count", "2",
                     "--eval-count", "2", "--out-dir", str(d)]) == 0
        images = mq.load_images(d / "calib_images.bin")
        images[1, 2, 3, 4] = bad
        mq.save_images(images, d / "calib_images.bin")
        code = main(["calibrate", "--model", str(d / "model"),
                     "--images", str(d / "calib_images.bin"), "--out", str(d / "calib.json")])
        assert code == 3
        assert "NaN or infinite" in capsys.readouterr().err
        assert not (d / "calib.json").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_is_3(self, tmp_path, capsys, bad):
        d = tmp_path / "run"
        assert main(["synth", "--arch", "mininet", "--seed", "1", "--calib-count", "2",
                     "--eval-count", "2", "--out-dir", str(d)]) == 0
        manifest = json.loads((d / "model/manifest.json").read_text())
        fc = next(n for n in manifest["nodes"] if n["id"] == "fc")
        blob = manifest["blobs"][fc["weights"]["weight"]["blob"]]
        raw = bytearray((d / "model/weights.bin").read_bytes())
        raw[blob["offset"] + 4:blob["offset"] + 8] = np.float32(bad).tobytes()
        (d / "model/weights.bin").write_bytes(bytes(raw))
        code = main(["calibrate", "--model", str(d / "model"),
                     "--images", str(d / "calib_images.bin"), "--out", str(d / "calib.json")])
        assert code == 3
        assert "NaN or infinite" in capsys.readouterr().err
        assert not (d / "calib.json").exists()

    def test_null_pool_kernel_is_3(self, tmp_path, capsys):
        d = tmp_path / "run"
        assert main(["synth", "--arch", "mini_resnet", "--seed", "1", "--calib-count", "2",
                     "--eval-count", "2", "--out-dir", str(d)]) == 0
        manifest = json.loads((d / "model/manifest.json").read_text())
        next(n for n in manifest["nodes"] if n["id"] == "pool1")["attrs"]["kernel"] = None
        (d / "model/manifest.json").write_text(json.dumps(manifest))
        code = main(["calibrate", "--model", str(d / "model"),
                     "--images", str(d / "calib_images.bin"), "--out", str(d / "calib.json")])
        assert code == 3
        assert "'pool1' (MaxPool)" in capsys.readouterr().err
        assert not (d / "calib.json").exists()

    @given(st.data())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_corrupt_attribute_is_2_or_3(self, corruptible_runs, tmp_path_factory, data):
        """One attribute of a saved FP32 or quantized manifest set to a value
        no node accepts: the command that loads it exits 2 or 3, never 1."""
        arch, which = data.draw(st.sampled_from(sorted(corruptible_runs)), label="run")
        root, command = corruptible_runs[arch, which]
        manifest = json.loads((root / which / "manifest.json").read_text())
        spots = [(i, key) for i, n in enumerate(manifest["nodes"]) for key in n["attrs"]]
        i, key = data.draw(st.sampled_from(spots), label="attribute")
        value = data.draw(st.sampled_from([v for v in CORRUPT_VALUES if not accepted(
            manifest["nodes"][i]["kind"], key, v)]), label="value")
        manifest["nodes"][i]["attrs"][key] = value
        d = tmp_path_factory.mktemp("corrupt")
        model = d / "model"
        model.mkdir()
        (model / "manifest.json").write_text(json.dumps(manifest))
        (model / "weights.bin").write_bytes((root / which / "weights.bin").read_bytes())
        assert main([a.format(root=root, model=model, out=d) for a in command]) in (2, 3)

    def test_ok_is_0(self, tmp_path):
        assert main(["synth", "--arch", "mininet", "--seed", "1", "--calib-count", "2",
                     "--eval-count", "2", "--out-dir", str(tmp_path / "m")]) == 0


class TestEvaluate:
    def test_two_passes_per_image_and_same_report(self, mininet, mininet_calib, eval_images):
        qg = mq.apply_mixed_precision(mininet, ["b2_conv"], mininet_calib)
        images = eval_images[:12]
        labels = [i % 10 for i in range(12)]
        ex = mq.Executor()
        report = evaluate_model(qg, reference_pass(mininet, images, executor=ex), images, labels,
                                executor=ex)
        assert ex.passes == 2 * images.shape[0]
        assert report["accuracy"] == evaluate_accuracy(qg, images, labels, quantized=True)
        assert report["ref_accuracy"] == evaluate_accuracy(mininet, images, labels, quantized=False)
        assert report["final_logit_sqnr_db"] == final_logit_sqnr(qg, mininet, images)

    def test_label_count_mismatch(self, mininet, eval_images):
        with pytest.raises(MissingLabels):
            evaluate_model(mininet, mininet, eval_images[:4], [0, 1, 2])


EVAL_COUNT = 4


@pytest.fixture(scope="module")
def reference_runs(tmp_path_factory):
    """Two mininet synth runs (seeds 1 and 2) with as many calibration as eval
    images, and seed 1's model quantized at 60 %."""
    runs = {}
    for seed in (1, 2):
        d = tmp_path_factory.mktemp(f"seed{seed}")
        assert main(["synth", "--arch", "mininet", "--seed", str(seed), "--calib-count",
                     str(EVAL_COUNT), "--eval-count", str(EVAL_COUNT), "--out-dir", str(d)]) == 0
        runs[seed] = d
    d = runs[1]
    assert main(["calibrate", "--model", f"{d}/model", "--images", f"{d}/calib_images.bin",
                 "--out", f"{d}/calib.json"]) == 0
    assert main(["analyze", "--model", f"{d}/model", "--calib", f"{d}/calib.json",
                 "--method", "in-order", "--out-list", f"{d}/list.txt"]) == 0
    assert main(["quantize", "--model", f"{d}/model", "--calib", f"{d}/calib.json",
                 "--list", f"{d}/list.txt", "--target-reduction", "60", "--out-dir", str(d)]) == 0
    return runs


class TestReferenceFile:
    """synth writes the FP32 outputs over the eval images next to them;
    evaluate uses them when both digests match and fails loudly when such a
    file is malformed."""

    @staticmethod
    def evaluate(run, images, out, monkeypatch=None):
        """Run evaluate on seed 1's q60 model; return its exit code, the
        image-passes it made and the model directories it loaded."""
        passes, loaded = [0], []
        if monkeypatch:
            run_pass, load = mq.Executor._run, model_io.load_model

            def counted(self, graph, inp, capture):
                passes[0] += inp.shape[0]
                return run_pass(self, graph, inp, capture)

            monkeypatch.setattr(mq.Executor, "_run", counted)
            monkeypatch.setattr(model_io, "load_model", lambda p: loaded.append(Path(p)) or load(p))
        code = main(["evaluate", "--model", f"{run}/q60/model", "--ref-model", f"{run}/model",
                     "--images", str(images), "--labels", f"{run}/labels.json", "--out", str(out)])
        return code, passes[0], loaded

    @staticmethod
    def images_without_reference(tmp_path, source):
        """A copy of the image file `source` with no reference file beside it."""
        tmp_path.mkdir(parents=True, exist_ok=True)
        images = tmp_path / source.name
        images.write_bytes(source.read_bytes())
        return images

    def test_synth_writes_the_fp32_outputs(self, reference_runs):
        d = reference_runs[1]
        images = mq.load_images(d / "eval_images.bin")
        digests = {"model": model_digest(d / "model"), "images": cli._sha256(d / "eval_images.bin")}
        ref = load_reference(reference_path(d / "eval_images.bin"), digests, EVAL_COUNT)
        fresh = reference_pass(mq.load_model(d / "model"), images)
        assert reference_path(d / "eval_images.bin") == d / "eval_images.bin.ref"
        assert ref.node == fresh.node == "fc"
        assert ref.logits.dtype == np.float32 and ref.logits.shape == (EVAL_COUNT, 10)
        assert np.array_equal(ref.logits, fresh.logits)
        assert ref.preds == fresh.preds == model_io.load_labels(d / "labels.json")

    def test_one_pass_per_image_with_the_file(self, reference_runs, tmp_path, monkeypatch):
        d = reference_runs[1]
        code, passes, loaded = self.evaluate(d, d / "eval_images.bin", tmp_path / "with.json",
                                             monkeypatch)
        assert code == 0
        assert passes == EVAL_COUNT
        assert loaded == [d / "q60/model"]
        images = self.images_without_reference(tmp_path / "bare", d / "eval_images.bin")
        code, passes, loaded = self.evaluate(d, images, tmp_path / "without.json", monkeypatch)
        assert code == 0
        assert passes == 2 * EVAL_COUNT
        assert loaded == [d / "q60/model", d / "model"]
        assert (tmp_path / "with.json").read_bytes() == (tmp_path / "without.json").read_bytes()

    @pytest.mark.parametrize("foreign", ["other_seed", "other_images"])
    def test_digest_mismatch_falls_back(self, reference_runs, tmp_path, monkeypatch, foreign):
        """A reference file made from another model, or from other images,
        is passed over: evaluate runs the FP32 pass itself and writes the
        report it writes without the file."""
        d = reference_runs[1]
        source = d / ("calib_images.bin" if foreign == "other_images" else "eval_images.bin")
        images = self.images_without_reference(tmp_path / "bare", source)
        assert self.evaluate(d, images, tmp_path / "bare.json")[0] == 0
        images = self.images_without_reference(tmp_path / "foreign", source)
        donor = reference_runs[2] if foreign == "other_seed" else d
        reference_path(images).write_bytes(reference_path(donor / "eval_images.bin").read_bytes())
        code, passes, loaded = self.evaluate(d, images, tmp_path / "foreign.json", monkeypatch)
        assert code == 0
        assert passes == 2 * EVAL_COUNT
        assert loaded == [d / "q60/model", d / "model"]
        assert (tmp_path / "foreign.json").read_bytes() == (tmp_path / "bare.json").read_bytes()

    @pytest.mark.parametrize("defect", ["truncated", "image_count", "garbled_header", "nan_logits"])
    def test_malformed_file_is_3(self, reference_runs, tmp_path, capsys, defect):
        d = reference_runs[1]
        images = self.images_without_reference(tmp_path, d / "eval_images.bin")
        raw = reference_path(d / "eval_images.bin").read_bytes()
        digests = {"model": model_digest(d / "model"), "images": cli._sha256(images)}
        ref = load_reference(reference_path(d / "eval_images.bin"), digests, EVAL_COUNT)
        path = reference_path(images)
        if defect == "truncated":
            path.write_bytes(raw[:-4])
        elif defect == "image_count":
            save_reference(Reference(ref.node, ref.logits[1:], ref.preds[1:]), path, digests)
        elif defect == "garbled_header":
            end = 4 + int.from_bytes(raw[:4], "little")
            path.write_bytes(raw[:end - 1] + b"!" + raw[end:])
        else:
            logits = ref.logits.copy()
            logits[2, 3] = np.nan
            save_reference(Reference(ref.node, logits, ref.preds), path, digests)
        assert self.evaluate(d, images, tmp_path / "report.json")[0] == 3
        assert "reference file" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
        error = NonFiniteValue if defect == "nan_logits" else CorruptBlob
        with pytest.raises(error):
            load_reference(path, digests, EVAL_COUNT)


class TestQuantizeListCoverage:
    def test_foreign_list_is_3(self, tmp_path, capsys):
        lists = {}
        for arch in ("mininet", "mini_resnet"):
            d = tmp_path / arch
            assert main(["synth", "--arch", arch, "--seed", "1", "--calib-count", "2",
                         "--eval-count", "2", "--out-dir", str(d)]) == 0
            assert main(["calibrate", "--model", str(d / "model"),
                         "--images", str(d / "calib_images.bin"), "--out", str(d / "calib.json")]) == 0
            assert main(["analyze", "--model", str(d / "model"), "--calib", str(d / "calib.json"),
                         "--method", "in-order", "--out-list", str(d / "sensitivity.txt")]) == 0
            lists[arch] = d / "sensitivity.txt"
        d = tmp_path / "mininet"
        args = ["quantize", "--model", str(d / "model"), "--calib", str(d / "calib.json"),
                "--target-reduction", "20", "--out-dir", str(tmp_path / "out")]
        assert main(args + ["--list", str(lists["mini_resnet"])]) == 3
        assert "analyzed on another model" in capsys.readouterr().err
        meta = Path(str(lists["mini_resnet"]) + ".meta.json")
        meta.write_text(json.dumps({**json.loads(meta.read_text()), "model_digest": ""}))
        assert main(args + ["--list", str(lists["mini_resnet"])]) == 3
        assert "no member of 8 fusion groups" in capsys.readouterr().err
        assert not (tmp_path / "out" / "q20").exists()
        assert main(args + ["--list", str(lists["mininet"])]) == 0


class TestProvenance:
    """calib.json records the digest of the model it profiled and a list the
    sha256 of the calib.json it was analyzed with; analyze and quantize exit 3
    when what they are given does not match."""

    @staticmethod
    def calibrate(run, out):
        assert main(["calibrate", "--model", f"{run}/model", "--images", f"{run}/calib_images.bin",
                     "--out", str(out)]) == 0

    def test_calib_of_another_model_is_3(self, reference_runs, tmp_path, capsys):
        d = reference_runs[1]
        foreign = tmp_path / "calib.json"
        self.calibrate(reference_runs[2], foreign)
        assert json.loads(foreign.read_text())["model"] == model_digest(reference_runs[2] / "model")
        assert main(["analyze", "--model", f"{d}/model", "--calib", str(foreign),
                     "--images", f"{d}/calib_images.bin", "--out-list", str(tmp_path / "s.txt")]) == 3
        assert "calibrated on another model" in capsys.readouterr().err
        assert not (tmp_path / "s.txt").exists()
        assert main(["quantize", "--model", f"{d}/model", "--calib", str(foreign),
                     "--list", f"{d}/list.txt", "--target-reduction", "40,60",
                     "--out-dir", str(tmp_path)]) == 3
        assert "calibrated on another model" in capsys.readouterr().err
        assert not list(tmp_path.glob("q*"))

    def test_list_of_another_calibration_is_3(self, reference_runs, tmp_path, capsys, monkeypatch):
        d = reference_runs[1]
        assert main(["analyze", "--model", f"{d}/model", "--calib", f"{d}/calib.json",
                     "--images", f"{d}/calib_images.bin", "--out-list", str(tmp_path / "s.txt")]) == 0
        digest = json.loads((tmp_path / "s.txt.meta.json").read_text())["calib_digest"]
        assert digest == cli._sha256(d / "calib.json")
        other = tmp_path / "other.json"
        assert main(["calibrate", "--model", f"{d}/model", "--images", f"{d}/eval_images.bin",
                     "--out", str(other)]) == 0
        args = ["quantize", "--model", f"{d}/model", "--list", str(tmp_path / "s.txt"),
                "--target-reduction", "40,60", "--out-dir", str(tmp_path / "out")]
        assert main(args + ["--calib", str(other)]) == 3
        assert "analyzed with another calibration" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        hashed, sha256 = [], cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda *p: hashed.append(p) or sha256(*p))
        assert main(args + ["--calib", f"{d}/calib.json"]) == 0
        assert hashed.count((f"{d}/calib.json",)) == 1
        for t in ("q40", "q60"):
            assert json.loads((tmp_path / "out" / t / "meta.json").read_text())["calib_digest"] == digest

    def test_list_of_another_model_is_3(self, reference_runs, tmp_path, capsys, monkeypatch):
        """A list records the digest of the model it was analyzed on, hashed
        once per command; quantize exits 3 on another model's list, and a list
        without the digest still loads."""
        d, other = reference_runs[1], reference_runs[2]
        hashed, sha256 = [], cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda *p: hashed.append(p) or sha256(*p))
        self.calibrate(other, tmp_path / "c.json")
        hashed.clear()
        assert main(["analyze", "--model", f"{other}/model", "--calib", str(tmp_path / "c.json"),
                     "--method", "weight-sqnr", "--out-list", str(tmp_path / "s.txt")]) == 0
        assert hashed.count((other / "model/manifest.json", other / "model/weights.bin")) == 1
        meta_path = tmp_path / "s.txt.meta.json"
        assert json.loads(meta_path.read_text())["model_digest"] == model_digest(other / "model")
        capsys.readouterr()
        args = ["quantize", "--model", f"{d}/model", "--calib", f"{d}/calib.json",
                "--list", str(tmp_path / "s.txt"), "--target-reduction", "40",
                "--out-dir", str(tmp_path / "out")]
        assert main(args) == 3
        assert "analyzed on another model" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        meta = json.loads(meta_path.read_text())
        del meta["model_digest"]
        meta_path.write_text(json.dumps(meta))
        hashed.clear()
        assert main(args) == 0
        assert hashed.count((Path(f"{d}/model/manifest.json"), Path(f"{d}/model/weights.bin"))) == 1

    def test_histogram_layout_calib_keeps_its_digest(self, reference_runs, tmp_path, capsys):
        """A calib.json in the older layout loads: the list analyzed with it
        and the quantized model match those of the range layout, and both
        record that file's sha256; a node without min, max or total is 3."""
        d = reference_runs[1]
        doc = json.loads((d / "calib.json").read_text())
        old = tmp_path / "old.json"
        old.write_text(json.dumps(histogram_layout(doc), indent=1, sort_keys=True))
        for calib, out in ((d / "calib.json", tmp_path / "new"), (old, tmp_path / "old")):
            assert main(["analyze", "--model", f"{d}/model", "--calib", str(calib),
                         "--images", f"{d}/calib_images.bin", "--out-list", f"{out}.txt"]) == 0
            assert main(["quantize", "--model", f"{d}/model", "--calib", str(calib),
                         "--list", f"{out}.txt", "--target-reduction", "40",
                         "--out-dir", str(out)]) == 0
            assert json.loads((out / "q40/meta.json").read_text())["calib_digest"] == cli._sha256(calib)
        assert (tmp_path / "old.txt").read_bytes() == (tmp_path / "new.txt").read_bytes()
        for rel in ("model/manifest.json", "model/weights.bin", "precision.json", "dequant_list.txt"):
            assert (tmp_path / "old/q40" / rel).read_bytes() == (tmp_path / "new/q40" / rel).read_bytes()
        del doc["nodes"]["fc"]["max"]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["quantize", "--model", f"{d}/model", "--calib", str(tmp_path / "bad.json"),
                     "--list", f"{d}/list.txt", "--target-reduction", "40",
                     "--out-dir", str(tmp_path / "bad")]) == 3
        assert "'fc'" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_library_profile_without_model_digest_is_accepted(self, reference_runs, tmp_path):
        d = reference_runs[1]
        graph, images = mq.load_model(d / "model"), mq.load_images(d / "calib_images.bin")
        mq.profile_activations(graph, images).save(tmp_path / "calib.json")
        assert "model" not in json.loads((tmp_path / "calib.json").read_text())
        assert main(["analyze", "--model", f"{d}/model", "--calib", str(tmp_path / "calib.json"),
                     "--method", "in-order", "--out-list", str(tmp_path / "s.txt")]) == 0
        assert main(["quantize", "--model", f"{d}/model", "--calib", str(tmp_path / "calib.json"),
                     "--list", str(tmp_path / "s.txt"), "--target-reduction", "40",
                     "--out-dir", str(tmp_path)]) == 0


class TestAnalyzeDiagnostics:
    def test_kl_and_cosine_only_for_metrics_csv(self, reference_runs, tmp_path, monkeypatch):
        """Without --out-metrics analyze computes neither KL nor cosine, still
        makes two passes per calibration image and writes the same list."""
        d = reference_runs[1]
        argv = ["analyze", "--model", f"{d}/model", "--calib", f"{d}/calib.json",
                "--images", f"{d}/calib_images.bin"]
        assert main(argv + ["--out-list", str(tmp_path / "with.txt"),
                            "--out-metrics", str(tmp_path / "metrics.csv")]) == 0
        rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        assert rows and all(row.split(",")[-1] and row.split(",")[-2] for row in rows)

        def boom(*args):
            raise AssertionError("diagnostic metric computed without --out-metrics")

        passes, run_pass = [0], mq.Executor._run

        def counted(self, graph, inp, capture):
            passes[0] += inp.shape[0]
            return run_pass(self, graph, inp, capture)

        monkeypatch.setattr(sensitivity, "kl_divergence", boom)
        monkeypatch.setattr(sensitivity, "cosine_similarity", boom)
        monkeypatch.setattr(mq.Executor, "_run", counted)
        assert main(argv + ["--out-list", str(tmp_path / "without.txt")]) == 0
        assert passes[0] == 2 * EVAL_COUNT
        for suffix in ("", ".meta.json"):
            assert (tmp_path / f"with.txt{suffix}").read_bytes() == \
                (tmp_path / f"without.txt{suffix}").read_bytes()


class TestPathologySynth:
    def test_scale_layer_flag(self, tmp_path):
        d = tmp_path / "p"
        assert main(["synth", "--arch", "mininet", "--seed", "42", "--calib-count", "2",
                     "--eval-count", "2", "--scale-layer", "b6_conv",
                     "--out-dir", str(d)]) == 0
        scaled = mq.load_model(d / "model")
        plain = mq.gen_synthetic("mininet", 42)
        w_scaled = scaled.node("b6_conv").weights["weight"].data
        w_plain = plain.node("b6_conv").weights["weight"].data
        assert (w_scaled != w_plain).any()

    @pytest.mark.parametrize("layer, says", [("b1_relu", "that node has no weight"),
                                             ("nosuch", "mininet has no such node")])
    def test_scale_layer_without_weight_is_3(self, tmp_path, capsys, layer, says):
        code = main(["synth", "--arch", "mininet", "--seed", "1", "--calib-count", "2",
                     "--eval-count", "2", "--scale-layer", layer, "--out-dir", str(tmp_path / "p")])
        assert code == 3
        assert f"--scale-layer {layer!r}: {says}" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_scale_factor_is_3(self, tmp_path, capsys):
        code = main(["synth", "--arch", "mininet", "--seed", "1", "--calib-count", "2",
                     "--eval-count", "2", "--scale-layer", "fc", "--scale-factor", "1e300",
                     "--out-dir", str(tmp_path / "p")])
        assert code == 3
        assert "makes its weights non-finite" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()
