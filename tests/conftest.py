import tempfile
from pathlib import Path

import pytest

import mixquant as mq

MININET_SHAPE = (3, 16, 16)


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


def run_f32(graph, image_batch, idx=0, capture=False, executor=None):
    ex = executor or mq.Executor()
    return ex.run_fp32(graph, mq.Tensor.f32(image_batch[idx:idx + 1]), capture=capture)
