import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mixquant as mq
from mixquant import executor
from mixquant.cli import METHODS, evaluate_model, final_logit_sqnr, main
from mixquant.errors import MissingLabels
from mixquant.fusion import discover_fusion_groups
from mixquant.quantizer import load_node_list
from mixquant.sensitivity import evaluate_accuracy


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
        assert len(batched) == 64
        assert batched.keys() == single.keys()
        for rel in batched:
            assert batched[rel] == single[rel], rel


# Values no attribute accepts, except where `accepted` says so.
CORRUPT_VALUES = [None, "2", 1.5, True, False, -1, 0, [], [1], [1, 2, 3], [[1], [1]], {"a": 1},
                  {"__qparams__": {"bit_width": 7, "step": 1.0, "zero_point": 0, "symmetric": False}},
                  {"__qparams__": {"bit_width": 32, "step": 1.0, "zero_point": 0, "symmetric": False}}]


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
        report = evaluate_model(qg, mininet, images, labels, executor=ex)
        assert ex.passes == 2 * images.shape[0]
        assert report["accuracy"] == evaluate_accuracy(qg, images, labels, quantized=True)
        assert report["ref_accuracy"] == evaluate_accuracy(mininet, images, labels, quantized=False)
        assert report["final_logit_sqnr_db"] == final_logit_sqnr(qg, mininet, images)

    def test_label_count_mismatch(self, mininet, eval_images):
        with pytest.raises(MissingLabels):
            evaluate_model(mininet, mininet, eval_images[:4], [0, 1, 2])


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
        assert "no member of 8 fusion groups" in capsys.readouterr().err
        assert not (tmp_path / "out" / "q20").exists()
        assert main(args + ["--list", str(lists["mininet"])]) == 0


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
