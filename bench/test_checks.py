"""Each output check of the benchmark rejects a deliberately corrupted artifact.

    python3 -m pytest bench/test_checks.py

One traced round each of mininet_pathology and resnet_methods produces real
artifacts, which pass every check; each test then corrupts one artifact (or
one recorded pass count) and expects CheckFailed.
"""

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import pipeline  # noqa: E402
import tracer  # noqa: E402


def _traced_round(name, work):
    runner = pipeline.Runner(name, work)
    t = tracer.Tracer()
    t.install()
    try:
        rnd = runner.run(3, latency=False, image_passes=t.image_passes)
    finally:
        t.uninstall()
    return runner, rnd


@pytest.fixture(scope="module")
def mininet(tmp_path_factory):
    return _traced_round("mininet_pathology", tmp_path_factory.mktemp("mininet"))


@pytest.fixture(scope="module")
def resnet(tmp_path_factory):
    return _traced_round("resnet_methods", tmp_path_factory.mktemp("resnet"))


def _private(rnd):
    return dataclasses.replace(rnd, passes=dict(rnd.passes))


@pytest.fixture
def run(mininet, tmp_path):
    """A private copy of the mininet round's artifacts to corrupt."""
    runner, rnd = mininet
    copy = pipeline.Runner(runner.name, tmp_path / "w")
    shutil.copytree(runner.work, copy.work)
    return copy, _private(rnd)


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _rejects(runner, rnd, match):
    with pytest.raises(checks.CheckFailed, match=match):
        runner.check(rnd)


def test_intact_artifacts_pass(run, resnet):
    for runner, rnd in (run, resnet):
        quality = runner.check(rnd)
        assert 0 < quality["top1_accuracy"] <= 1 and quality["qdq_count"] > 0


def test_fp32_accuracy_below_one(run):
    runner, rnd = run
    _edit_json(runner.work / "in-order" / "report40.json",
               lambda d: d.update(ref_accuracy=31 / 32))
    _rejects(runner, rnd, "ref_accuracy")


@pytest.mark.parametrize("edit, match", [
    (lambda ids: ids[:-1], "permutation"),
    (lambda ids: ids + ids[:1], "permutation"),
    (lambda ids: [i.replace("b3_bn", "b3_bnx") for i in ids], "permutation"),
    # move a BatchNorm away from its conv: same set, group split
    (lambda ids: [i for i in ids if i != "b3_bn"] + ["b3_bn"], "split"),
])
def test_sensitivity_list(run, edit, match):
    runner, rnd = run
    path = runner.work / "delta-mixup" / "sensitivity.txt"
    ids = path.read_text().split()
    path.write_text("\n".join(edit(ids)) + "\n")
    _rejects(runner, rnd, match)


def test_bops_config(run):
    runner, rnd = run
    _edit_json(runner.work / "delta-mixup" / "report60.json",
               lambda d: d["bops"].update(bops_config=d["bops"]["bops_config"] + 8))
    _rejects(runner, rnd, "bops_config")


def test_normalized_reduction(run):
    runner, rnd = run
    _edit_json(runner.work / "delta-mixup" / "report60.json",
               lambda d: d["bops"].update(
                   normalized_reduction_pct=d["bops"]["normalized_reduction_pct"] + 1e-6))
    _rejects(runner, rnd, "normalized reduction")


def test_precision_table(run):
    runner, rnd = run

    def flip(doc):
        nid = next(k for k, v in doc["layers"].items() if v == 8)
        doc["layers"][nid] = 32
    _edit_json(runner.work / "in-order" / "q20" / "precision.json", flip)
    _rejects(runner, rnd, "precision.json")


def test_reduction_above_target(run):
    runner, rnd = run
    # a model quantized for 80% presented as the 20% one: every figure agrees
    # with MAC x bits, but the achieved reduction exceeds the target
    for name in ("model", "precision.json", "dequant_list.txt", "meta.json"):
        src, dst = runner.work / "in-order" / "q80" / name, runner.work / "in-order" / "q20" / name
        shutil.rmtree(dst) if dst.is_dir() else dst.unlink()
        (shutil.copytree if src.is_dir() else shutil.copy)(src, dst)
    shutil.copy(runner.work / "in-order" / "report80.json", runner.work / "in-order" / "report20.json")
    _rejects(runner, rnd, "exceeds the target")


def test_qdq_count(run):
    runner, rnd = run
    _edit_json(runner.work / "in-order" / "report80.json",
               lambda d: d.update(qdq_count=d["qdq_count"] - 1))
    _rejects(runner, rnd, "qdq_count")


def test_delta_mixup_below_in_order(mininet):
    _, rnd = mininet
    heads = [rnd.heads["delta-mixup"]] * 8
    checks.check_pathology([rnd.logit_sqnr], heads, "fc")
    worse = {m: dict(by_target) for m, by_target in rnd.logit_sqnr.items()}
    worse["delta-mixup"][40] = worse["in-order"][40] - 1e-6
    with pytest.raises(checks.CheckFailed, match="mean delta-mixup logit SQNR"):
        checks.check_pathology([worse], heads, "fc")


def test_heavy_layer_not_first(mininet):
    _, rnd = mininet
    assert rnd.heads["delta-mixup"] == "fc"
    # one model of eight may miss the heavy-tailed layer, two may not
    checks.check_pathology([rnd.logit_sqnr], ["fc"] * 7 + ["b2_conv"], "fc")
    with pytest.raises(checks.CheckFailed, match="instead of fc on 2 of 8 models"):
        checks.check_pathology([rnd.logit_sqnr], ["fc"] * 6 + ["b2_conv"] * 2, "fc")


def test_two_passes_per_calibration_image(run):
    runner, rnd = run
    rnd.passes["analyze:delta-mixup"] += 1
    _rejects(runner, rnd, "delta-mixup analyze")


def test_top1_passes(resnet):
    runner, rnd = resnet[0], _private(resnet[1])
    rnd.passes["analyze:top1"] -= pipeline.TOP1_IMAGES
    _rejects(runner, rnd, "top1 analyze")
