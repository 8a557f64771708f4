import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import mixquant as mq
from mixquant import executor

MININET_SHAPE = (3, 16, 16)
# Activation budgets that give one image per pass, the default batches, and
# every image in one pass.
BUDGETS = {"1 byte": 1, "default": executor.ACTIVATION_BUDGET_BYTES, "1e9 bytes": 10 ** 9}


@pytest.fixture(scope="session")
def mininet():
    return mq.gen_synthetic("mininet", 42)


@pytest.fixture(scope="session")
def calib_images():
    return mq.gen_images(32, MININET_SHAPE, 7)


@pytest.fixture(scope="session")
def eval_images():
    return mq.gen_images(64, MININET_SHAPE, 9)


@pytest.fixture(scope="session")
def mininet_calib(mininet, calib_images):
    return mq.profile_activations(mininet, calib_images)


@pytest.fixture(scope="session")
def all_archs():
    return {name: mq.gen_synthetic(name, 42)
            for name in ("mininet", "mini_resnet", "mini_mobilenet")}


def graph_signature(graph):
    """Structural identity: the manifest and weight bytes save_model writes
    (name, ids, kinds, wiring, attrs, precisions, weights)."""
    with tempfile.TemporaryDirectory() as tmp:
        mq.save_model(graph, tmp)
        return tuple((Path(tmp) / f).read_bytes() for f in ("manifest.json", "weights.bin"))


def run_f32(graph, image_batch, idx=0, executor=None):
    ex = executor or mq.Executor()
    return ex.run_fp32(graph, mq.Tensor.f32(image_batch[idx:idx + 1]))


def non_input(graph):
    """The ids of every node of `graph` but its Input, in graph order."""
    return [n.id for n in graph.nodes if n.kind != "Input"]


def observed(run, graph, inp, ids, **kwargs):
    """A pass `run(graph, inp, ...)`'s output and the outputs it made of the
    nodes in `ids`, by node id in the order the pass made them, each as
    float32: each observer dequantizes int8 codes so that values compare in
    one domain."""
    outputs = {}

    def keep(nid, t):
        outputs[nid] = t if t.qparams is None else mq.dequantize(t)
    return run(graph, inp, observe={nid: partial(keep, nid) for nid in ids}, **kwargs), outputs


def histogram_layout(doc: dict) -> dict:
    """`doc` in the older calib.json layout: a top-level `bin_count` of 2048,
    and per node a power-of-two `hist_range` and 2,048 `bins` that sum to
    `total`."""
    old = {**doc, "bin_count": 2048, "nodes": {}}
    for nid, d in doc["nodes"].items():
        r = max(abs(d["min"]), abs(d["max"]), 1.0)
        counts = [0] * 2048
        counts[1024] = d["total"]
        old["nodes"][nid] = {**d, "hist_range": 2.0 ** np.ceil(np.log2(r)), "bins": counts}
    return old
