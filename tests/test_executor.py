from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import signal

import mixquant as mq
from mixquant.errors import (InvariantViolation, MissingQuantParams, NonPositiveVariance, ShapeMismatch,
                             UnsupportedKind)
from mixquant.executor import (
    MAX_EXACT_K,
    MAX_F32_K,
    Executor,
    _im2col,
    kernel_avgpool,
    kernel_batchnorm,
    kernel_conv2d,
    kernel_depthwise_conv2d,
    kernel_flatten,
    kernel_global_avgpool,
    kernel_maxpool,
    kernel_relu,
    kernel_softmax,
)
from mixquant.ir import KINDS, Graph, Node, QuantParams, Tensor, round_half_away
from mixquant.model_io import Lcg
from mixquant.quantizer import _requantize

from conftest import non_input, observed, run_f32

# Output of mininet(seed 42) on gen_images(1, (3,16,16), 123), pinned at first
# implementation and cross-checked against the scipy-based oracle below.
MININET_GOLDEN = np.array([
    0.159620196, 0.031039290, 0.164319858, 0.041680433, 0.280350566,
    0.039827872, 0.050020613, 0.102116905, 0.059311889, 0.071712330,
], dtype=np.float32)


def gemm(x, w, b=None):
    """The binder table's Gemm kernel: y = x @ w.T + b, run as a 1x1 conv."""
    weights = {"weight": w} if b is None else {"weight": w, "bias": b}
    return mq.executor._KERNELS["Gemm"](Node("fc", "Gemm"), weights)([x])


def scipy_conv2d(x, w, b, stride, padding):
    """Independent conv oracle: per-channel scipy correlate2d in float64."""
    n, ci, h, wd = x.shape
    co = w.shape[0]
    sh, sw = (stride, stride) if np.isscalar(stride) else stride
    ph, pw = (padding, padding) if np.isscalar(padding) else padding
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = []
    for i in range(n):
        maps = []
        for o in range(co):
            acc = np.zeros((xp.shape[2] - w.shape[2] + 1, xp.shape[3] - w.shape[3] + 1))
            for c in range(ci):
                acc += signal.correlate2d(xp[i, c], w[o, c].astype(np.float64), mode="valid")
            maps.append(acc[::sh, ::sw] + (0.0 if b is None else b[o]))
        out.append(np.stack(maps))
    return np.stack(out)


class TestFp32Kernels:
    def test_relu(self):
        assert np.array_equal(kernel_relu(np.array([-3.0, 0.0, 5.0])), [0.0, 0.0, 5.0])

    def test_relu_graph_example(self):
        g = Graph("r")
        g.add(Node("input", "Input", attrs={"shape": [1, 1, 2]}))
        g.add(Node("r", "ReLU", ["input"]))
        g.add(Node("output", "Output", ["r"]))
        y = Executor().run_fp32(g, Tensor.f32(np.array([[[[-1.0, 2.0]]]])))
        assert np.array_equal(y.data, [[[[0.0, 2.0]]]])

    def test_softmax_symmetry(self):
        assert np.allclose(kernel_softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_softmax_stability(self):
        y = kernel_softmax(np.array([[1000.0, 1000.0, 999.0]], dtype=np.float32))
        assert np.isfinite(y).all() and np.isclose(y.sum(), 1.0)

    def test_conv_identity_kernel(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        assert np.array_equal(kernel_conv2d(x, w, None), x)

    def test_conv_hand_sum(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        w = np.ones((1, 1, 2, 2), dtype=np.float32)
        assert np.array_equal(kernel_conv2d(x, w, None), [[[[10.0]]]])

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_conv_vs_scipy_oracle(self, stride, padding):
        rng = Lcg(17)
        x = rng.uniform(-1, 1, (2, 3, 8, 8)).astype(np.float32)
        w = rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32)
        b = rng.uniform(-1, 1, (4,)).astype(np.float32)
        got = kernel_conv2d(x, w, b, (stride, stride), (padding, padding))
        want = scipy_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_depthwise_vs_per_channel_oracle(self):
        rng = Lcg(23)
        x = rng.uniform(-1, 1, (1, 2, 6, 6)).astype(np.float32)
        w = rng.uniform(-1, 1, (2, 1, 3, 3)).astype(np.float32)
        got = kernel_depthwise_conv2d(x, w, None, (1, 1), (1, 1))
        for c in range(2):
            want = scipy_conv2d(x[:, c:c + 1], w[c:c + 1], None, 1, 1)
            np.testing.assert_allclose(got[:, c:c + 1], want, rtol=1e-5, atol=1e-6)
        # each filter touches only its own channel
        x2 = x.copy()
        x2[:, 1] = 0.0
        got2 = kernel_depthwise_conv2d(x2, w, None, (1, 1), (1, 1))
        np.testing.assert_array_equal(got[:, 0], got2[:, 0])

    def test_batchnorm_identity(self):
        x = np.array([[[[1.0, -2.0]]]], dtype=np.float32)
        ones, zeros = np.ones(1, np.float32), np.zeros(1, np.float32)
        np.testing.assert_allclose(kernel_batchnorm(x, ones, zeros, zeros, ones, 0.0), x)

    def test_batchnorm_hand_value(self):
        y = kernel_batchnorm(np.array([[[[3.0]]]], np.float32), np.array([2.0], np.float32),
                             np.array([0.5], np.float32), np.array([1.0], np.float32),
                             np.array([4.0], np.float32), 0.0)
        assert np.isclose(y, 2.5)

    def test_batchnorm_negative_variance(self):
        g = Graph("bn")
        g.add(Node("input", "Input", attrs={"shape": [1, 1, 1]}))
        g.add(Node("bn", "BatchNorm", ["input"], attrs={"epsilon": 0.0},
                   weights={"gamma": Tensor.f32(np.ones(1)), "beta": Tensor.f32(np.zeros(1)),
                            "mean": Tensor.f32(np.zeros(1)), "var": Tensor.f32(np.array([-1.0]))}))
        g.add(Node("output", "Output", ["bn"]))
        with pytest.raises(NonPositiveVariance):
            Executor().run_fp32(g, Tensor.f32(np.zeros((1, 1, 1, 1))))

    def test_maxpool(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        assert np.array_equal(kernel_maxpool(x, (2, 2), (2, 2)), [[[[4.0]]]])

    def test_avgpool(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        assert np.array_equal(kernel_avgpool(x, (2, 2), (2, 2)), [[[[2.5]]]])

    def test_global_avgpool(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        assert np.array_equal(kernel_global_avgpool(x), [[1.5, 5.5]])

    def test_gemm_hand_value(self):
        y = gemm(np.array([[1.0, 2.0]], np.float32),
                        np.array([[1.0, 0.0], [0.0, 1.0]], np.float32),
                        np.array([1.0, 1.0], np.float32))
        assert np.array_equal(y, [[2.0, 3.0]])

    def test_flatten(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        assert kernel_flatten(x).shape == (1, 8)


class TestGraphExecution:
    def test_fused_relu_writes_only_values_its_step_made(self):
        """An FP32 Flatten and a Gemm, each with a fused ReLU, over a batch
        that is a slice of the caller's images, the Input observed: the images
        and the observed input keep their bits, and each fused output has the
        bits of an out-of-place ReLU node's, signed zeros included."""
        rng = np.random.default_rng(3)
        images = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        images.flat[::5], images.flat[1::7] = -0.0, 0.0
        wt = rng.standard_normal((4, 18)).astype(np.float32)
        wt[0] = 0.0  # its output is the bias alone
        bias = np.array([-0.0, 0.5, -0.5, 0.0], np.float32)

        def graph(fused):
            g = Graph("relu")
            g.add(Node("input", "Input", attrs={"shape": [2, 3, 3]}))
            g.add(Node("flat", "Flatten", ["input"], attrs={"fused_relu": fused}))
            if not fused:
                g.add(Node("r1", "ReLU", ["flat"]))
            g.add(Node("fc", "Gemm", ["flat" if fused else "r1"], attrs={"fused_relu": fused},
                       weights={"weight": Tensor(wt), "bias": Tensor(bias)}))
            if not fused:
                g.add(Node("r2", "ReLU", ["fc"]))
            g.add(Node("output", "Output", ["fc" if fused else "r2"]))
            return g

        before = images.copy()
        batch = Tensor.f32(images[1:3])
        assert np.shares_memory(batch.data, images)
        _, got = observed(Executor().run_fp32, graph(True), batch, ["input", "flat", "fc"])
        assert images.tobytes() == before.tobytes()
        assert got["input"].data.tobytes() == before[1:3].tobytes()
        _, want = observed(Executor().run_fp32, graph(False), Tensor.f32(before[1:3]), ["r1", "r2"])
        assert got["flat"].data.tobytes() == want["r1"].data.tobytes()
        assert got["fc"].data.tobytes() == want["r2"].data.tobytes()

    def test_mininet_golden(self, mininet):
        y = run_f32(mininet, mq.gen_images(1, (3, 16, 16), 123))
        np.testing.assert_allclose(y.data.ravel(), MININET_GOLDEN, rtol=1e-6, atol=1e-7)

    def test_mininet_vs_scalar_composite(self, mininet):
        """Re-run the whole net through the independent scipy/float64 path."""
        x = mq.gen_images(1, (3, 16, 16), 123).astype(np.float64)
        values = {"input": x}
        for nid in mq.topo_sort(mininet):
            n = mininet.node(nid)
            if n.kind == "Input":
                continue
            a = values[n.inputs[0]]
            if n.kind == "Conv2d":
                values[nid] = scipy_conv2d(a, n.weights["weight"].data, n.weights["bias"].data,
                                           n.attrs.get("stride", 1), n.attrs.get("padding", 0))
            elif n.kind == "BatchNorm":
                w = n.weights
                scale = w["gamma"].data / np.sqrt(w["var"].data + n.attrs["epsilon"])
                values[nid] = scale[None, :, None, None] * (a - w["mean"].data[None, :, None, None]) \
                    + w["beta"].data[None, :, None, None]
            elif n.kind == "ReLU":
                values[nid] = np.maximum(a, 0.0)
            elif n.kind == "Add":
                values[nid] = a + values[n.inputs[1]]
            elif n.kind == "GlobalAvgPool":
                values[nid] = a.mean(axis=(2, 3))
            elif n.kind == "Gemm":
                values[nid] = a @ n.weights["weight"].data.T.astype(np.float64) + n.weights["bias"].data
            elif n.kind == "Softmax":
                e = np.exp(a - a.max(axis=-1, keepdims=True))
                values[nid] = e / e.sum(axis=-1, keepdims=True)
            elif n.kind == "Output":
                values[nid] = a
        want = values[mininet.output_node.id]
        got = run_f32(mininet, mq.gen_images(1, (3, 16, 16), 123))
        np.testing.assert_allclose(got.data, want, rtol=1e-4, atol=1e-6)

    def test_deterministic_bit_exact(self, mininet, calib_images):
        a = run_f32(mininet, calib_images)
        b = run_f32(mininet, calib_images)
        assert np.array_equal(a.data, b.data)

    def test_pass_counter(self, mininet, calib_images):
        ex = Executor()
        run_f32(mininet, calib_images, executor=ex)
        run_f32(mininet, calib_images, idx=1, executor=ex)
        assert ex.passes == 2

    def test_trace_covers_non_input_nodes(self, mininet, calib_images):
        _, trace = observed(Executor().run_fp32, mininet, Tensor.f32(calib_images[:1]), non_input(mininet))
        expected = {n.id for n in mininet.nodes if n.kind != "Input"}
        assert set(trace) == expected

    def test_no_capture_empty_trace(self, mininet, calib_images):
        _, trace = observed(Executor().run_fp32, mininet, Tensor.f32(calib_images[:1]), [])
        assert trace == {}

    def test_run_fp32_rejects_int8_graph(self, mininet, mininet_calib, calib_images):
        qg = mq.apply_mixed_precision(mininet, [], mininet_calib)
        with pytest.raises(InvariantViolation):
            run_f32(qg, calib_images)

    def test_input_shape_mismatch(self, mininet):
        with pytest.raises(ShapeMismatch):
            Executor().run_fp32(mininet, Tensor.f32(np.zeros((1, 3, 8, 8), np.float32)))


class TestQuantizedExecution:
    def test_quantize_dequantize_roundtrip_bound(self):
        qp = QuantParams(0.02, -5)
        g = Graph("qdq")
        g.add(Node("input", "Input", attrs={"shape": [1, 1, 64]}))
        g.add(Node("q", "Quantize", ["input"], attrs={"out_qparams": qp}))
        g.add(Node("d", "Dequantize", ["q"]))
        g.add(Node("output", "Output", ["d"]))
        x = Lcg(3).uniform(-2.0, 2.0, (1, 1, 1, 64)).astype(np.float32)
        x = np.clip(x, (qp.qmin - qp.zero_point) * qp.step, (qp.qmax - qp.zero_point) * qp.step)
        y = Executor().run_quantized(g, Tensor.f32(x))
        assert np.abs(y.data - x).max() <= qp.step / 2 + 1e-9

    def test_unit_scale_conv_hand_value(self):
        qp1 = QuantParams(1.0, 0)
        g = Graph("c1x1")
        g.add(Node("input", "Input", attrs={"shape": [1, 1, 1]}))
        g.add(Node("q", "Quantize", ["input"], attrs={"out_qparams": qp1}))
        conv = Node("c", "Conv2d", ["q"],
                    attrs={"stride": 1, "padding": 0, "out_qparams": qp1},
                    weights={"weight": Tensor(np.array([[[[3]]]], np.int8),
                                              QuantParams(1.0, 0, symmetric=True))},
                    precision=8)
        g.add(conv)
        g.add(Node("output", "Output", ["c"]))
        y = Executor().run_quantized(g, Tensor.f32(np.array([[[[2.0]]]], np.float32)))
        assert y.data.ravel()[0] == 6 and y.dtype == "i8"

    def test_unit_scale_conv_matches_fp32_exactly(self, mininet_calib):
        """Integer inputs, all scales 1: the int8 conv equals FP32 conv bit-for-bit."""
        rng = Lcg(9)
        xi = np.floor(rng.uniform(-5, 6, (1, 2, 5, 5))).astype(np.float32)
        wi = np.floor(rng.uniform(-3, 4, (3, 2, 3, 3))).astype(np.float32)
        qp_act = QuantParams(1.0, 0)
        fp = mq.executor.kernel_conv2d(xi, wi, None, (1, 1), (1, 1))
        g = Graph("int")
        g.add(Node("input", "Input", attrs={"shape": [2, 5, 5]}))
        g.add(Node("q", "Quantize", ["input"], attrs={"out_qparams": qp_act}))
        g.add(Node("c", "Conv2d", ["q"],
                   attrs={"stride": 1, "padding": 1, "out_qparams": QuantParams(1.0, 0)},
                   weights={"weight": Tensor(wi.astype(np.int8), QuantParams(1.0, 0, symmetric=True))},
                   precision=8))
        g.add(Node("d", "Dequantize", ["c"]))
        g.add(Node("output", "Output", ["d"]))
        y = Executor().run_quantized(g, Tensor.f32(xi))
        np.testing.assert_array_equal(y.data, np.clip(fp, -128, 127))

    def test_local_error_bound_at_quantize_point(self, mininet, mininet_calib, calib_images):
        """Dequantized activation differs from its own pre-quantization input by
        at most step/2 elementwise at the Quantize node itself."""
        qg = mq.apply_mixed_precision(mininet, [], mininet_calib)
        quantize_nodes = [n for n in qg.nodes if n.kind == "Quantize"]
        assert quantize_nodes
        x = Tensor.f32(calib_images[0:1])
        _, trace = observed(Executor().run_quantized, qg, x, non_input(qg))
        values = {**trace, qg.input_node.id: x}  # int8 outputs come dequantized
        for qn in quantize_nodes:
            src = values[qn.inputs[0]].data
            back = values[qn.id].data
            qp = qn.attrs["out_qparams"]
            in_range = np.abs(src) <= (qp.qmax - qp.zero_point) * qp.step
            err = np.abs(back - src)[in_range]
            assert err.max() <= qp.step / 2 + 1e-9

    def test_fully_int8_mininet_logit_sqnr(self, mininet, mininet_calib, calib_images):
        qg = mq.apply_mixed_precision(mininet, [], mininet_calib)
        ref, got = (mq.reference_pass(g, calib_images[:8]) for g in (mininet, qg))
        assert mq.mean_logit_sqnr(ref.logits, got.logits) > 10.0

    def test_quantized_deterministic(self, mininet, mininet_calib, calib_images):
        qg = mq.apply_mixed_precision(mininet, [], mininet_calib)
        ex = Executor()
        x = Tensor.f32(calib_images[0:1])
        a = ex.run_quantized(qg, x)
        b = ex.run_quantized(qg, x)
        assert np.array_equal(a.data, b.data)

    def test_missing_qparams_rejected(self):
        g = Graph("bad")
        g.add(Node("input", "Input", attrs={"shape": [1, 2, 2]}))
        bad = Node("r", "ReLU", ["input"], precision=8)
        g.add(bad)
        g.add(Node("output", "Output", ["r"]))
        with pytest.raises(MissingQuantParams):
            Executor().run_quantized(g, Tensor.f32(np.zeros((1, 1, 2, 2), np.float32)))


# ---------------------------------------------------------------------------
# reference definitions: the np.pad im2col and the per-channel depthwise loop

def padded_im2col(x, kh, kw, stride, padding):
    """Stride and padding are ints or (height, width) pairs."""
    (sh, sw), (ph, pw) = (v if isinstance(v, tuple) else (v, v) for v in (stride, padding))
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (xp.shape[2] - kh) // sh + 1
    ow = (xp.shape[3] - kw) // sw + 1
    cols = np.empty(x.shape[:2] + (kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
    return cols.reshape(x.shape[0], -1, oh * ow), oh, ow


def per_channel_depthwise(x, w, b, stride, padding):
    outs = []
    for c in range(x.shape[1]):
        cols, oh, ow = padded_im2col(x[:, c:c + 1], w.shape[2], w.shape[3], stride, padding)
        outs.append(np.matmul(w[c:c + 1].reshape(1, -1), cols).reshape(x.shape[0], 1, oh, ow))
    y = np.concatenate(outs, axis=1)
    return y + b[None, :, None, None] if b is not None else y


def int_linear_oracle(kind, xq, in_qp, wq, w_step, bias, stride, padding, out_qp, fused_relu):
    """Naive int64 loops for the accumulator, then the executor's requantization."""
    x = xq.astype(np.int64) - in_qp.zero_point
    w = wq.astype(np.int64)
    if kind == "Gemm":
        acc = np.array([[sum(int(x[n, k]) * int(w[o, k]) for k in range(x.shape[1]))
                         for o in range(w.shape[0])] for n in range(x.shape[0])], dtype=np.int64)
    else:
        n, c, h, wd = x.shape
        co, _, kh, kw = w.shape
        xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), np.int64)
        xp[:, :, padding:padding + h, padding:padding + wd] = x
        oh = (h + 2 * padding - kh) // stride + 1
        ow = (wd + 2 * padding - kw) // stride + 1
        acc = np.zeros((n, co, oh, ow), np.int64)
        for b in range(n):
            for o in range(co):
                chans = [(o, 0)] if kind == "DepthwiseConv2d" else [(ci, ci) for ci in range(c)]
                for i in range(oh):
                    for j in range(ow):
                        acc[b, o, i, j] = sum(
                            int(xp[b, ci, i * stride + u, j * stride + v]) * int(w[o, wi, u, v])
                            for ci, wi in chans for u in range(kh) for v in range(kw))
    scale = in_qp.step * w_step
    if bias is not None:
        bq = round_half_away(bias.astype(np.float64) / scale).astype(np.int64)
        acc = acc + bq.reshape((-1,) + (1,) * (acc.ndim - 2))
    q = round_half_away(acc.astype(np.float64) * scale / out_qp.step) + out_qp.zero_point
    if fused_relu:
        q = np.maximum(q, out_qp.zero_point)
    return np.clip(q, out_qp.qmin, out_qp.qmax).astype(np.int8)


zero_points = st.sampled_from([-128, 127]) | st.integers(-128, 127)
steps = st.floats(1e-3, 1.0)


@st.composite
def int8_linear_cases(draw):
    kind = draw(st.sampled_from(["Conv2d", "DepthwiseConv2d", "Gemm"]))
    n = draw(st.integers(1, 2))
    if kind == "Gemm":
        k, co = draw(st.integers(1, 12)), draw(st.integers(1, 4))
        x_shape, w_shape, stride, padding = (n, k), (co, k), 1, 0
    else:
        c = draw(st.integers(1, 3))
        kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, 1))
        h = draw(st.integers(max(1, kh - 2 * padding), 6))
        w = draw(st.integers(max(1, kw - 2 * padding), 6))
        x_shape = (n, c, h, w)
        w_shape = (c, 1, kh, kw) if kind == "DepthwiseConv2d" else (draw(st.integers(1, 3)), c, kh, kw)
    xq = draw(hnp.arrays(np.int8, x_shape, elements=st.integers(-128, 127)))
    wq = draw(hnp.arrays(np.int8, w_shape, elements=st.sampled_from([-127, 127]) | st.integers(-127, 127)))
    bias = draw(st.none() | hnp.arrays(np.float32, (w_shape[0],), elements=st.floats(-2, 2, width=32)))
    in_qp = QuantParams(draw(steps), draw(zero_points))
    out_qp = QuantParams(draw(steps), draw(zero_points))
    return kind, xq, in_qp, wq, draw(steps), bias, stride, padding, out_qp, draw(st.booleans())


def int8_linear_graph(kind, xq, in_qp, wq, w_step, bias, stride, padding, out_qp, fused_relu):
    weights = {"weight": Tensor(wq, QuantParams(w_step, 0, symmetric=True))}
    if bias is not None:
        weights["bias"] = Tensor(bias)
    g = Graph("int8")
    g.add(Node("input", "Input", attrs={"shape": list(xq.shape[1:])}))
    g.add(Node("op", kind, ["input"], weights=weights, precision=8,
               attrs={"stride": stride, "padding": padding, "fused_relu": fused_relu,
                      "out_qparams": out_qp}))
    g.add(Node("output", "Output", ["op"]))
    return g


@st.composite
def worst_case_near_f32_bound(draw):
    """Gemm or Conv2d with K in [515, 521], every input offset by +255 or by
    -255 and weights +-127, mostly of one sign per filter. With power-of-two
    steps, a bias of minus the full-window accumulator plus a small delta
    leaves output codes that read the accumulator's last units, which a
    float32 sum past 2**24 would round."""
    kind = draw(st.sampled_from(["Gemm", "Conv2d"]))
    k = draw(st.integers(515, 521))
    code, zp = draw(st.sampled_from([(-128, 127), (127, -128)]))
    co = draw(st.integers(1, 2))
    if kind == "Gemm":
        x_shape, w_shape, padding = (draw(st.integers(1, 2)), k), (co, k), 0
    else:
        kh, kw = draw(st.sampled_from([(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if k % (a * b) == 0]))
        padding = draw(st.integers(0, 1))
        h = draw(st.integers(max(1, kh - 2 * padding), max(1, kh - 2 * padding) + 1))
        w = draw(st.integers(max(1, kw - 2 * padding), max(1, kw - 2 * padding) + 1))
        x_shape, w_shape = (1, k // (kh * kw), h, w), (co, k // (kh * kw), kh, kw)
    wq = np.empty((co, k), np.int8)
    for o in range(co):
        wq[o] = draw(st.sampled_from([-127, 127]))
        wq[o, draw(st.lists(st.integers(0, k - 1), max_size=2))] *= -1
    in_step, w_step = 2.0 ** -draw(st.integers(0, 8)), 2.0 ** -draw(st.integers(0, 8))
    bias = None
    if draw(st.integers(0, 3)):
        full = (code - zp) * wq.astype(np.int64).sum(axis=1)
        bias = ((draw(st.integers(-100, 100)) - full) * in_step * w_step).astype(np.float32)
    out_qp = QuantParams(in_step * w_step, draw(st.integers(-27, 27)))
    return (kind, np.full(x_shape, code, np.int8), QuantParams(in_step, zp), wq.reshape(w_shape), w_step,
            bias, 1, padding, out_qp, draw(st.booleans()))


class TestExactInt8Accumulation:
    @given(int8_linear_cases())
    @settings(max_examples=150, deadline=None)
    def test_int8_linear_matches_int64_loop_oracle(self, case):
        y = Executor().run_quantized(int8_linear_graph(*case), Tensor(case[1], case[2]))
        assert y.dtype == "i8"
        np.testing.assert_array_equal(y.data, int_linear_oracle(*case))

    @given(worst_case_near_f32_bound())
    @settings(max_examples=60, deadline=None)
    def test_worst_case_operands_at_the_float32_bound(self, case):
        y = Executor().run_quantized(int8_linear_graph(*case), Tensor(case[1], case[2]))
        np.testing.assert_array_equal(y.data, int_linear_oracle(*case))

    @pytest.mark.parametrize("kind", ["Gemm", "Conv2d"])
    @pytest.mark.parametrize("k", [515, 517])
    def test_bias_past_2_24_is_added_in_float64(self, kind, k):
        """A float32-exact accumulator (odd, below 2**24) plus a bias that
        takes the sum past 2**24, to one unit under a rounding boundary: a
        float32 add would round the sum up onto the boundary and the code
        away from it."""
        in_qp, w_step = QuantParams(2.0 ** -4, -128), 2.0 ** -6
        scale = in_qp.step * w_step
        acc = 255 * 127 * k
        total = 301 * 2 ** 16 - 1
        assert acc % 2 == 1 and acc < 2 ** 24 < total
        x_shape, w_shape = ((1, k), (1, k)) if kind == "Gemm" else ((1, k, 1, 1), (1, k, 1, 1))
        xq, wq = np.full(x_shape, 127, np.int8), np.full(w_shape, 127, np.int8)
        case = (kind, xq, in_qp, wq, w_step, np.array([(total - acc) * scale], np.float32), 1, 0,
                QuantParams(scale * 2 ** 17, -128), False)
        y = Executor().run_quantized(int8_linear_graph(*case), Tensor(xq, in_qp))
        want = int_linear_oracle(*case)
        assert want.ravel()[0] == 150 - 128
        np.testing.assert_array_equal(y.data, want)

    def test_float32_bound(self):
        assert MAX_F32_K == 518
        assert 255 * 127 * MAX_F32_K < 2 ** 24 <= 255 * 127 * (MAX_F32_K + 1)

    @pytest.mark.parametrize("kind", ["Gemm", "Conv2d"])
    def test_operands_are_float32_up_to_the_bound(self, monkeypatch, kind):
        """The kernel sees float32 operands at K = MAX_F32_K and float64 one
        past it."""
        from mixquant import executor
        seen = []
        conv = executor.kernel_conv2d

        def recording(x, weight, *args, **kwargs):
            seen.append((x.dtype, weight.dtype))
            return conv(x, weight, *args, **kwargs)

        monkeypatch.setattr(executor, "kernel_conv2d", recording)
        qp = QuantParams(0.5, 3)
        for k in (MAX_F32_K, MAX_F32_K + 1):
            x_shape, w_shape = ((1, k), (2, k)) if kind == "Gemm" else ((1, k, 2, 2), (2, k, 1, 1))
            xq = np.zeros(x_shape, np.int8)
            g = int8_linear_graph(kind, xq, qp, np.ones(w_shape, np.int8), 0.5, None, 1, 0, qp, False)
            Executor().run_quantized(g, Tensor(xq, qp))
        assert seen == [(np.float32, np.float32), (np.float64, np.float64)]

    def test_accumulation_bound_guard(self):
        assert 255 * 127 * MAX_EXACT_K < 2 ** 53 <= 255 * 127 * (MAX_EXACT_K + 1)
        qp = QuantParams(0.1, 0)
        # a zero-stride view: K is past the bound without allocating it
        wide = np.broadcast_to(np.int8(1), (1, MAX_EXACT_K + 1))
        g = Graph("g")
        g.add(Node("input", "Input", attrs={"shape": [4]}))
        g.add(Node("q", "Quantize", ["input"], attrs={"out_qparams": qp}))
        g.add(Node("fc", "Gemm", ["q"], precision=8,
                   attrs={"out_qparams": qp},
                   weights={"weight": Tensor(wide, QuantParams(0.1, 0, symmetric=True))}))
        g.add(Node("output", "Output", ["fc"]))
        with pytest.raises(InvariantViolation):
            mq.executor._bind(g.node("fc"))


class TestVectorizedFp32Kernels:
    @given(st.integers(1, 2), st.integers(1, 8), st.integers(1, 3), st.integers(1, 2),
           st.integers(0, 1), st.booleans(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_depthwise_equals_per_channel_definition(self, n, c, k, stride, padding, with_bias, seed):
        rng = Lcg(seed)
        h = w = k + 2 + seed % 7
        x = rng.uniform(-1, 1, (n, c, h, w)).astype(np.float32)
        wt = rng.uniform(-1, 1, (c, 1, k, k)).astype(np.float32)
        b = rng.uniform(-1, 1, (c,)).astype(np.float32) if with_bias else None
        got = kernel_depthwise_conv2d(x, wt, b, (stride, stride), (padding, padding))
        want = per_channel_depthwise(x, wt, b, stride, padding)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(1, 2),
           st.integers(0, 1), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_conv_equals_padded_im2col_definition(self, ci, co, k, stride, padding, seed):
        rng = Lcg(seed)
        x = rng.uniform(-1, 1, (1, ci, 7, 6)).astype(np.float32)
        wt = rng.uniform(-1, 1, (co, ci, k, k)).astype(np.float32)
        cols, oh, ow = padded_im2col(x, k, k, stride, padding)
        want = np.matmul(wt.reshape(co, -1), cols).reshape(1, co, oh, ow)
        np.testing.assert_array_equal(kernel_conv2d(x, wt, None, (stride, stride), (padding, padding)), want)

    @given(st.sampled_from([np.float32, np.float64]), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 2), st.integers(1, 2), st.integers(0, 2), st.integers(0, 2), st.integers(1, 7),
           st.integers(1, 7), st.sampled_from(["contiguous", "sliced", "transposed"]),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_im2col_equals_padded_definition(self, dtype, n, kh, kw, sh, sw, ph, pw, h, w, layout, seed):
        assume(h + 2 * ph >= kh and w + 2 * pw >= kw)
        rng, c = Lcg(seed), 1 + seed % 3
        if layout == "sliced":
            x = rng.uniform(-1, 1, (n, c, h, 2 * w + 1)).astype(dtype)[:, :, :, 1::2]
        elif layout == "transposed":
            x = rng.uniform(-1, 1, (n, c, w, h)).astype(dtype).transpose(0, 1, 3, 2)
        else:
            x = rng.uniform(-1, 1, (n, c, h, w)).astype(dtype)
        want, w_oh, w_ow = padded_im2col(x, kh, kw, (sh, sw), (ph, pw))
        got, oh, ow = _im2col(x, kh, kw, (sh, sw), (ph, pw))
        assert (oh, ow) == (w_oh, w_ow) and got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the geometry made for this per-image shape serves every batch size
        for j in range(n):
            assert _im2col(x[j:j + 1], kh, kw, (sh, sw), (ph, pw))[0].tobytes() == want[j:j + 1].tobytes()

    @given(st.sampled_from(["Conv2d", "DepthwiseConv2d", "Gemm", "AvgPool"]), st.booleans(),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(1, 2), st.integers(0, 2),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bound_step_keeps_batch1_bits_at_batch_1_then_3_then_1(self, kind, int8, kh, kw, sh, sw, pad,
                                                                    seed):
        """One graph, so one bound step, run on image 0, then images 0-2,
        then each image alone: every image keeps its batch-1 bits."""
        rng = np.random.default_rng(seed)
        c, h, w = 1 + seed % 3, kh + 2 + seed % 4, kw + 1 + seed % 5
        if kind == "AvgPool":  # a pool's padding stays below its kernel
            attrs = {"kernel": [kh, kw], "stride": [sh, sw], "padding": min(pad, kh - 1, kw - 1)}
            weights = {}
        else:
            attrs = {"stride": [sh, sw], "padding": pad}
            w_shape = {"Conv2d": (2, c, kh, kw), "DepthwiseConv2d": (c, 1, kh, kw),
                       "Gemm": (3, c * h * w)}[kind]
            wt = rng.standard_normal(w_shape).astype(np.float32)
            if int8:
                wt = Tensor(np.round(wt * 40).astype(np.int8), QuantParams(0.025, 0, symmetric=True))
            weights = {"weight": wt if int8 else Tensor(wt),
                       "bias": Tensor(rng.standard_normal(w_shape[0]).astype(np.float32))}
        in_shape = [c * h * w] if kind == "Gemm" else [c, h, w]
        if int8:
            attrs["out_qparams"] = QuantParams(0.05, 3)
        g = Graph("step")
        g.add(Node("input", "Input", attrs={"shape": in_shape}))
        g.add(Node("op", kind, ["input"], weights=weights, attrs=attrs, precision=8 if int8 else 32))
        g.add(Node("output", "Output", ["op"]))
        x = rng.standard_normal((3, *in_shape)).astype(np.float32)

        def feed(a):  # int8 input codes at step 0.02, zero point -5
            if not int8:
                return Tensor.f32(a)
            return Tensor(np.clip(np.round(a / 0.02) - 5, -128, 127).astype(np.int8), QuantParams(0.02, -5))

        ex = Executor()
        run = ex.run_quantized if int8 else ex.run_fp32
        first = run(g, feed(x[:1])).data
        batch = run(g, feed(x)).data
        assert first.tobytes() == batch[:1].tobytes()
        for j in range(3):
            assert run(g, feed(x[j:j + 1])).data.tobytes() == batch[j:j + 1].tobytes(), j

    def test_depthwise_rejects_channel_multiplier(self):
        g = Graph("dw")
        g.add(Node("input", "Input", attrs={"shape": [2, 4, 4]}))
        g.add(Node("dw", "DepthwiseConv2d", ["input"],
                   weights={"weight": Tensor.f32(np.zeros((2, 2, 3, 3)))}))
        g.add(Node("output", "Output", ["dw"]))
        with pytest.raises(ShapeMismatch):
            mq.infer_shapes(g)


# ---------------------------------------------------------------------------
# batch invariance: a batched pass gives every image its batch-1 bits

ARCHS = ("mininet", "mini_resnet", "mini_mobilenet")


@pytest.fixture(scope="module")
def arch_graphs(all_archs):
    """Per arch: the FP32 graph, a fully-int8 graph at the analysis stage and
    a mixed graph at the application stage, as (graph, quantized) pairs."""
    from mixquant.fusion import lower_to_stage
    from mixquant.sensitivity import quantizable_in_topo_order

    out = {}
    for name, g in all_archs.items():
        shape = tuple(int(d) for d in g.input_node.attrs["shape"])
        calib = mq.profile_activations(g, mq.gen_images(4, shape, 11))
        fused = lower_to_stage(g, "fused")
        keep = quantizable_in_topo_order(fused)[::3]
        out[name] = (shape, [(g, False), (mq.apply_mixed_precision(g, [], calib), True),
                             (mq.apply_mixed_precision(fused, keep, calib), True)])
    return out


class TestBatchInvariance:
    @given(st.sampled_from(ARCHS), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=24, deadline=None)
    def test_batched_pass_equals_batch1_passes(self, arch_graphs, arch, n, seed):
        shape, graphs = arch_graphs[arch]
        images = mq.gen_images(n, shape, seed)
        ex = Executor()
        for graph, quantized in graphs:
            run = ex.run_quantized if quantized else ex.run_fp32
            out, trace = observed(run, graph, Tensor.f32(images), non_input(graph))
            for j in range(n):
                one, one_trace = observed(run, graph, Tensor.f32(images[j:j + 1]), non_input(graph))
                assert np.array_equal(out.data[j:j + 1], one.data)
                assert trace.keys() == one_trace.keys()
                for nid, t in one_trace.items():
                    assert np.array_equal(trace[nid].data[j:j + 1], t.data), nid
        assert ex.passes == 3 * 2 * n

    @given(st.integers(2, 8), st.integers(1, 96), st.integers(1, 32),
           st.sampled_from([np.float32, np.float64]), st.booleans(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gemm_rows_equal_batch1_rows(self, m, k, n, dtype, with_bias, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, k)).astype(dtype)
        w = rng.standard_normal((n, k)).astype(dtype)
        b = rng.standard_normal(n).astype(dtype) if with_bias else None
        y = gemm(x, w, b)
        # the stacked (1, K) @ (K, N) product per row is the reference
        want = np.matmul(x[:, None, :], w.T)[:, 0]
        np.testing.assert_array_equal(y, want + b if with_bias else want)
        for j in range(m):
            assert np.array_equal(y[j:j + 1], gemm(x[j:j + 1], w, b))

    def test_capture_keeps_named_nodes_only(self, mininet, calib_images):
        _, trace = observed(Executor().run_fp32, mininet, Tensor.f32(calib_images[:1]), ["b2_conv", "fc"])
        assert set(trace) == {"b2_conv", "fc"}


def tiny_conv_graph():
    """input (1,4,4) -> 3x3 conv, padding 1, 2 channels -> relu -> output."""
    g = Graph("tiny")
    g.add(Node("input", "Input", attrs={"shape": [1, 4, 4]}))
    w = np.arange(18, dtype=np.float32).reshape(2, 1, 3, 3) / 18
    g.add(Node("conv", "Conv2d", ["input"], attrs={"stride": 1, "padding": 1},
               weights={"weight": Tensor(w), "bias": Tensor(np.zeros(2, np.float32))}))
    g.add(Node("relu", "ReLU", ["conv"]))
    g.add(Node("output", "Output", ["relu"]))
    return g


class TestImageBatches:
    def test_budget_sets_batch_size(self, mininet, monkeypatch):
        """The per-image cost is the largest step of the plan: the values live
        before it, plus the larger of the step's own peak (its output
        included) and its output with what the consumer allocates taking it.
        FP32 tiny graph, at the conv: the input (16 floats, 64 bytes) and the
        kernel's peak, the 6x6 padded copy with the 9*16 window columns, 180
        floats: 64 + 720 = 784. An FP32 output the consumer keeps stays live
        past its last reader, and the conv's or every output's held to the
        end never makes the largest step. All-int8, at the conv: the
        Quantize codes (16 bytes), then the offset input copy with the padded
        copy and the columns, float32 at K = 9: (16 + 180) x 4 = 784, more
        than the float64 accumulator, quotient and rounding term, 32 x 24 =
        768; 800 bytes. Resumed from an FP32 pass paused at the conv, it is
        charged the input that pass still holds: 864. The FP32 pass that
        compares the conv and relu with codes an int8 pass kept holds them
        (2 x 32 bytes) until each is compared; at the relu: its 32 codes
        still held, the conv output (128) live, and the relu output (128)
        with the comparison's float32 copy and two float64 arrays (32 x 20)
        make 928. numpy's ufunc buffer, 8 * getbufsize() bytes, comes off the
        budget first."""
        from mixquant import executor

        g = tiny_conv_graph()
        calib = mq.profile_activations(g, mq.gen_images(2, (1, 4, 4), 3))
        q = mq.apply_mixed_precision(g, [], calib)
        assert [n.kind for n in q.nodes if n.precision == 8] == ["Conv2d", "ReLU"]
        assert executor.live_before(g, "conv") == ("input",)
        reserve = 8 * np.getbufsize()
        for graph, kwargs, per_image in ((g, {}, 784), (g, {"keep": ["conv"]}, 784),
                                         (g, {"keep": non_input(g)}, 784), (q, {}, 800),
                                         (q, {"keep": ["conv", "relu"]}, 800),
                                         (q, {"given": ("input",)}, 864),
                                         (g, {"compare": (q, ["conv", "relu"])}, 928)):
            monkeypatch.setattr(executor, "ACTIVATION_BUDGET_BYTES", reserve + 4 * per_image - 1)
            assert executor.batch_size(graph, **kwargs) == 3, (kwargs, per_image)
            monkeypatch.setattr(executor, "ACTIVATION_BUDGET_BYTES", reserve + 4 * per_image)
            assert executor.batch_size(graph, **kwargs) == 4, (kwargs, per_image)
        monkeypatch.setattr(executor, "ACTIVATION_BUDGET_BYTES", 1)
        assert executor.batch_size(mininet) == 1

    def test_batches_cover_images_in_order(self, mininet, calib_images, monkeypatch):
        from mixquant import executor

        monkeypatch.setattr(executor, "ACTIVATION_BUDGET_BYTES", 1 << 21)
        step = executor.batch_size(mininet)
        assert step > 1
        batches = list(executor.image_batches(calib_images[:7], step + 1, step))
        assert [b.shape[0] for b in batches][:-1] == [step] * (len(batches) - 1)
        assert np.array_equal(np.concatenate([b.data for b in batches]), calib_images[:7])


# ---------------------------------------------------------------------------
# the execution plan: cached by wiring, frees each value after its last reader

def caller_passes(graph):
    """Per caller, the batch_size arguments of the passes it runs on each
    batch, in order, as the pipeline commands build them."""
    from mixquant.fusion import lower_to_stage
    from mixquant.sensitivity import logits_node_id, quantizable_in_topo_order

    shape = tuple(int(d) for d in graph.input_node.attrs["shape"])
    calib = mq.profile_activations(graph, mq.gen_images(2, shape, 5))
    fused = lower_to_stage(graph, "fused")
    all_int8 = mq.apply_mixed_precision(fused, [], calib)
    mixed = mq.apply_mixed_precision(fused, quantizable_in_topo_order(fused)[::3], calib)
    unfused_int8 = mq.apply_mixed_precision(graph, [], calib)
    qids = quantizable_in_topo_order(graph)
    qids_fused = quantizable_in_topo_order(fused)
    return {
        "evaluate": [{"graph": all_int8, "keep": [logits_node_id(all_int8)]}],
        "evaluate_mixed": [{"graph": mixed, "keep": [logits_node_id(mixed)]}],
        "calibrate": [{"graph": graph}],
        "analyze": [{"graph": unfused_int8, "keep": qids},
                    {"graph": graph, "compare": (unfused_int8, qids)}],
        "analyze_fused": [{"graph": all_int8, "keep": qids_fused},
                          {"graph": fused, "compare": (all_int8, qids_fused)}],
        "reference": [{"graph": graph, "keep": [logits_node_id(graph)]}],
        "top1": [{"graph": mixed}],
    }


# images per pass of each caller at the 1 MiB budget, min over its passes
BATCH_TABLE = {
    "mininet": {"evaluate": 5, "evaluate_mixed": 5, "calibrate": 4, "analyze": 3,
                "analyze_fused": 4, "reference": 4, "top1": 5},
    "mini_resnet": {"evaluate": 9, "evaluate_mixed": 12, "calibrate": 19, "analyze": 7,
                    "analyze_fused": 8, "reference": 19, "top1": 12},
    "mini_mobilenet": {"evaluate": 5, "evaluate_mixed": 5, "calibrate": 5, "analyze": 4,
                       "analyze_fused": 4, "reference": 5, "top1": 5},
}


def run_caller(passes, images):
    """Run a caller's passes over one batch as its command does: a pass that
    keeps values holds them as they come, for its caller (reference_pass's
    logits) or for the next pass, which compares each with its own output
    as analyze scores it and so releases every one."""
    from mixquant.metrics import row_powers

    ex, kept = Executor(), {}
    for p in passes:
        graph = p["graph"]
        run = ex.run_quantized if any(n.precision == 8 for n in graph.nodes) else ex.run_fp32
        observe = {}
        if "keep" in p:
            observe = {nid: partial(kept.__setitem__, nid) for nid in p["keep"]}
        elif "compare" in p:
            def compare(nid, t):
                row_powers(t.data, mq.dequantize(kept.pop(nid)).data)
            observe = {nid: partial(compare, nid) for nid in p["compare"][1]}
        run(graph, images, observe=observe)
        if "compare" in p:
            assert not kept


@pytest.fixture(scope="module")
def arch_passes(all_archs):
    return {arch: caller_passes(g) for arch, g in all_archs.items()}


class TestExecutionPlan:
    def test_plan_frees_after_last_reader(self, mininet):
        from mixquant.executor import _program
        plan = _program(mininet).plan(())
        step = {nid: i for i, (nid, _) in enumerate(plan)}
        freed = {s: i for i, (_, last) in enumerate(plan) for s in last}
        for n in mininet.nodes:
            readers = [step[m.id] for m in mininet.nodes if n.id in m.inputs]
            assert freed.get(n.id) == (max(readers) if readers else None), n.id
        assert "b2_relu" in dict(plan)["b4_add"]  # the skip lives until the add

    @pytest.mark.parametrize("quantized", [False, True])
    def test_intermediate_released_after_last_reader(self, arch_graphs, monkeypatch, quantized):
        """The array b1_conv's node holds (the conv kernel's result in FP32,
        the requantized int8 codes in int8) is gone by the time the softmax
        runs, unless an observer keeps it."""
        import weakref

        from mixquant import executor
        shape, graphs = arch_graphs["mininet"]
        graph = graphs[1][0] if quantized else graphs[0][0]
        first, alive_at_softmax = [], []
        producer = "_requantize" if quantized else "kernel_conv2d"
        make, softmax = getattr(executor, producer), executor.kernel_softmax

        def recording(*args, **kwargs):
            y = make(*args, **kwargs)
            if not first:  # b1_conv is the first node to reach this function
                first.append(weakref.ref(y.data if quantized else y))
            return y

        def checking_softmax(*args, **kwargs):
            alive_at_softmax.append(first[0]() is not None)
            return softmax(*args, **kwargs)

        monkeypatch.setattr(executor, producer, recording)
        monkeypatch.setattr(executor, "kernel_softmax", checking_softmax)
        ex = Executor()
        run = ex.run_quantized if quantized else ex.run_fp32
        images = Tensor.f32(np.ones((2, *shape), np.float32))
        run(graph, images)
        first.clear()
        _, trace = observed(run, graph, images, ["b1_conv"])
        assert alive_at_softmax == [False, not quantized]  # this observer keeps int8 codes dequantized
        assert (trace["b1_conv"].data is first[0]()) == (not quantized)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_batch_table(self, arch_passes, arch):
        from mixquant.executor import batch_size
        got = {caller: min(batch_size(**p) for p in arch_passes[arch][caller])
               for caller in BATCH_TABLE[arch]}
        assert got == BATCH_TABLE[arch]

    @pytest.mark.parametrize("arch", ARCHS)
    def test_pass_peak_stays_within_budget(self, arch_passes, arch):
        """Each caller's passes over one batch of its batch size, everything
        they hand each other included, allocate at most
        ACTIVATION_BUDGET_BYTES at their peak, as tracemalloc sees numpy's
        allocations."""
        import tracemalloc

        from mixquant.executor import ACTIVATION_BUDGET_BYTES, batch_size
        shape = next(iter(arch_passes[arch].values()))[0]["graph"].input_node.attrs["shape"]
        peaks = {}
        for caller, passes in arch_passes[arch].items():
            n = min(batch_size(**p) for p in passes)
            images = Tensor.f32(mq.gen_images(n, tuple(shape), 17))
            run_caller(passes, images)  # warm the plan cache and the bound steps
            tracemalloc.start()
            try:
                run_caller(passes, images)
                peaks[caller] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) <= ACTIVATION_BUDGET_BYTES, peaks

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("stage", ["unfused", "fused"])
    def test_analyze_and_calibrate_peak_stays_within_budget(self, all_archs, monkeypatch, arch, stage):
        """generate_sensitivity_list's two passes per batch, with everything
        they hold, and profile_activations' streamed pass, over two batches
        or more, allocate at most ACTIVATION_BUDGET_BYTES at their peak. The
        int8 graph is made and bound before, as the model it is, not part of
        the passes' activations."""
        import tracemalloc

        from mixquant import sensitivity
        from mixquant.executor import ACTIVATION_BUDGET_BYTES
        from mixquant.fusion import lower_to_stage

        graph = lower_to_stage(all_archs[arch], stage)
        shape = tuple(graph.input_node.attrs["shape"])
        calib = mq.profile_activations(all_archs[arch], mq.gen_images(2, shape, 5))
        q_graph = mq.apply_mixed_precision(graph, [], calib)
        monkeypatch.setattr(sensitivity, "apply_mixed_precision", lambda *args: q_graph)
        images = mq.gen_images(40, shape, 17)  # two batches of the largest
        peaks = {}
        for name, flow in (("analyze", lambda: mq.generate_sensitivity_list(graph, calib, images)),
                           ("calibrate", lambda: mq.profile_activations(graph, images))):
            flow()  # warm the plan cache and the bound steps
            tracemalloc.start()
            try:
                flow()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) <= ACTIVATION_BUDGET_BYTES, peaks

    @pytest.mark.parametrize("arch", ARCHS)
    def test_paused_pass_peak_stays_within_budget(self, all_archs, arch):
        """top1's batch: an FP32 pass that pauses at every fusion group's
        anchor, where that group's graph resumes from the values live there,
        allocates at most ACTIVATION_BUDGET_BYTES at its peak."""
        import tracemalloc

        from mixquant.executor import ACTIVATION_BUDGET_BYTES, batch_size, image_batches, live_before
        from mixquant.fusion import discover_fusion_groups
        from mixquant.sensitivity import quantizable_in_topo_order

        graph = all_archs[arch]
        shape = tuple(graph.input_node.attrs["shape"])
        calib = mq.profile_activations(graph, mq.gen_images(2, shape, 5))
        all_q = quantizable_in_topo_order(graph)
        qgs = {g.anchor: mq.apply_mixed_precision(graph, [n for n in all_q if n not in g.members], calib)
               for g in discover_fusion_groups(graph)}
        sizes = [batch_size(graph)] + [batch_size(qg, given=live_before(graph, a)) for a, qg in qgs.items()]
        batch = next(image_batches(mq.gen_images(64, shape, 17), *sizes))
        assert 1 < batch.shape[0] < 64
        ex = Executor()
        pause = {a: lambda values, qg=qg: ex.run_quantized(qg, batch, given=values) for a, qg in qgs.items()}
        ex.run_fp32(graph, batch, pause=pause)  # warm the plan cache
        tracemalloc.start()
        try:
            ex.run_fp32(graph, batch, pause=pause)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ACTIVATION_BUDGET_BYTES, peak


# ---------------------------------------------------------------------------
# step programs: each node bound once per graph, wiring and given set

class TestStepProgram:
    @pytest.mark.parametrize("quantized", [False, True])
    def test_each_node_bound_once_over_five_passes(self, mininet, mininet_calib, calib_images,
                                                   monkeypatch, quantized):
        from collections import Counter

        from mixquant import executor
        bound, bind = Counter(), executor._bind

        def counting(node):
            bound[node.id] += 1
            return bind(node)

        monkeypatch.setattr(executor, "_bind", counting)
        g = mq.apply_mixed_precision(mininet, [], mininet_calib) if quantized else mininet.copy()
        ex = Executor()
        run = ex.run_quantized if quantized else ex.run_fp32
        outs = [run(g, Tensor.f32(calib_images[:2])).data for _ in range(5)]
        assert bound == Counter(n.id for n in g.nodes)
        assert all(np.array_equal(o, outs[0]) for o in outs)

    def test_second_given_set_gets_its_own_plan(self, mininet, calib_images, monkeypatch):
        """Passes resumed from the values live at two anchors each follow
        their own pruned plan over the graph's one set of bound steps, and
        both equal the full pass bit for bit."""
        from collections import Counter

        from mixquant import executor
        bound, bind = Counter(), executor._bind

        def counting(node):
            bound[node.id] += 1
            return bind(node)

        monkeypatch.setattr(executor, "_bind", counting)
        g, ex, x = mininet.copy(), Executor(), Tensor.f32(calib_images[:3])
        live = {}
        pause = {a: lambda values, a=a: live.setdefault(a, dict(values)) for a in ("b2_conv", "b4_conv")}
        full = ex.run_fp32(g, x, pause=pause)
        for anchor in pause:
            out = ex.run_quantized(g, x, given=live[anchor])
            assert np.array_equal(out.data, full.data), anchor
        plan = executor._program(g).plan
        assert len(plan(live["b4_conv"])) < len(plan(live["b2_conv"])) < len(plan(()))
        assert bound == Counter(n.id for n in g.nodes)
        assert executor._program(g).steps.keys() == set(bound)

    def test_program_dies_with_its_graph(self, mininet, calib_images):
        import gc
        import weakref

        from mixquant.executor import _program
        g = mininet.copy()
        Executor().run_fp32(g, Tensor.f32(calib_images[:1]))
        program = _program(g)
        refs = weakref.ref(g), weakref.ref(program)
        del g, program
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_scaled_copy_runs_its_own_weights(self, calib_images):
        """A copy of a graph that has run, with one node's weights scaled,
        gives the scaled model's outputs bit for bit: a copy never shares its
        graph's memo, so its program binds the copy's weights."""
        from mixquant.model_io import scale_node_weights
        g, x = mq.gen_synthetic("mininet", 42), Tensor.f32(calib_images[:2])
        before = Executor().run_fp32(g, x)
        scaled = scale_node_weights(g, "fc", 50.0, stride=64)
        fresh = scale_node_weights(mq.gen_synthetic("mininet", 42), "fc", 50.0, stride=64)
        out = Executor().run_fp32(scaled, x)
        assert out.data.tobytes() == Executor().run_fp32(fresh, x).data.tobytes()
        assert out.data.tobytes() != before.data.tobytes()

    @pytest.mark.parametrize("quantized", [False, True])
    def test_observer_takes_each_output_as_its_step_makes_it(self, arch_graphs, monkeypatch, quantized):
        """`observe` gets each observed output right after its step, before
        the next step runs, int8 outputs as their codes; the pass returns the
        Output's value as an unobserved pass does, and an observer that
        dequantizes codes holds the same values as float32."""
        from mixquant import executor
        shape, graphs = arch_graphs["mininet"]
        graph = (graphs[1][0] if quantized else graphs[0][0]).copy()  # bound afresh
        log, bind = [], executor._bind

        def logging(node):
            step = bind(node)
            return lambda inp, ins: (log.append(("step", node.id)), step(inp, ins))[1]

        monkeypatch.setattr(executor, "_bind", logging)
        ids = [n.id for n in graph.nodes if n.kind in ("Conv2d", "ReLU", "Softmax")]
        seen = {}

        def observe(nid, t):
            log.append(("observe", nid))
            seen[nid] = t

        ex, x = Executor(), Tensor.f32(mq.gen_images(2, shape, 3))
        run = ex.run_quantized if quantized else ex.run_fp32
        out = run(graph, x, observe={nid: partial(observe, nid) for nid in ids})
        assert [e for e in log if e[0] == "observe"] == [("observe", nid) for nid in ids]
        for i, (kind, nid) in enumerate(log):
            if kind == "observe":
                assert log[i - 1] == ("step", nid)
        assert np.array_equal(out.data, run(graph, x).data)
        assert any(t.qparams is not None for t in seen.values()) == quantized
        _, full = observed(run, graph, x, ids)
        assert list(full) == ids
        for nid, t in seen.items():
            want = mq.dequantize(t) if t.qparams is not None else t
            assert np.array_equal(full[nid].data, want.data), nid

    @given(st.sampled_from(ARCHS), st.integers(0, 2), st.data())
    @settings(max_examples=30, deadline=None)
    def test_observers_are_keyed_by_node(self, arch_graphs, arch, which, data):
        """`observe` maps node ids to callables. Over any set of ids, FP32
        and int8, in a full pass and in one resumed from the values live
        before a node: each observed id's callable runs once, in plan order,
        right after its step and with the value that step made; none runs for
        a given id or for a step the pruned plan skips; and the pass returns
        the bytes an unobserved pass returns."""
        from mixquant import executor
        shape, graphs = arch_graphs[arch]
        graph, quantized = graphs[which]
        graph = graph.copy()  # bound afresh, through the logging binder below
        ids = data.draw(st.lists(st.sampled_from([n.id for n in graph.nodes]), unique=True), label="ids")
        inner = [n.id for n in graph.nodes if n.kind not in ("Input", "Output")]
        cut = data.draw(st.sampled_from([None, *inner]), label="resumed before")
        x = Tensor.f32(mq.gen_images(2, shape, data.draw(st.integers(0, 2 ** 16), label="seed")))
        log, bind, given = [], executor._bind, {}

        def logging(node):
            step = bind(node)
            return lambda inp, ins: (y := step(inp, ins), log.append(("step", node.id, y)))[0]

        ex = Executor()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(executor, "_bind", logging)
            run = ex.run_quantized if quantized else ex.run_fp32
            if cut is not None:  # the values live before `cut`, as a paused pass holds them
                live = executor.live_before(graph, cut)
                run(graph, x, observe={nid: partial(given.__setitem__, nid) for nid in live})
                run = partial(ex.run_quantized, given=given)
            log.clear()
            out = run(graph, x, observe={nid: partial(lambda nid, t: log.append(("observe", nid, t)), nid)
                                         for nid in ids})
        plan = [nid for nid, _ in executor._program(graph).plan(given)]
        assert [e[1] for e in log if e[0] == "step"] == plan
        assert [e[1] for e in log if e[0] == "observe"] == [nid for nid in plan if nid in ids]
        for i, (kind, nid, t) in enumerate(log):
            if kind == "observe":
                assert log[i - 1][:2] == ("step", nid) and log[i - 1][2] is t, nid
        assert not given.keys() & {e[1] for e in log if e[0] == "observe"}
        assert cut is None or len(plan) < len(graph.nodes)
        plain = run(graph, x)
        assert (out.dtype, out.data.tobytes()) == (plain.dtype, plain.data.tobytes())
        assert ex.passes == 2 * (3 if cut is not None else 2)

    def test_added_node_is_checked(self, mininet, calib_images):
        """A node added after a pass is seen by the graph checks: an int8
        node, even one that nothing reads, stops the next FP32 pass."""
        g, ex = mininet.copy(), Executor()
        ex.run_fp32(g, Tensor.f32(calib_images[:1]))
        g.add(Node("extra", "ReLU", ["b2_relu"], precision=8))
        with pytest.raises(InvariantViolation, match="'extra'"):
            ex.run_fp32(g, Tensor.f32(calib_images[:1]))

    @pytest.mark.parametrize("shape", [(2, 16, 8, 8), (2, 16, 1, 16), (3, 16, 16, 16)])
    def test_given_value_of_wrong_shape(self, mininet, calib_images, shape):
        """A given value must have the shape its node infers, at the pass's
        batch; (2, 16, 1, 16) would otherwise broadcast silently in b4_add."""
        g, ex, x = mininet.copy(), Executor(), Tensor.f32(calib_images[:2])
        live = {}
        full = ex.run_fp32(g, x, pause={"b4_add": lambda values: live.update(values)})
        out = ex.run_quantized(g, x, given=live)
        assert np.array_equal(out.data, full.data)
        with pytest.raises(ShapeMismatch, match="b4_bn"):
            ex.run_quantized(g, x, given={**live, "b4_bn": Tensor.f32(np.zeros(shape))})

    def test_top1_infers_each_graph_once(self, all_archs, monkeypatch):
        """top1 on mini_resnet, over several batches: the FP32 graph and each
        group's graph have their shapes inferred once, when their program is
        made, however many batch sizes and passes read them."""
        from mixquant import executor
        from mixquant.fusion import discover_fusion_groups
        from mixquant.sensitivity import baseline_order

        graph = all_archs["mini_resnet"].copy()
        images = mq.gen_images(24, (3, 16, 16), 7)
        calib = mq.profile_activations(all_archs["mini_resnet"], images[:4])
        calls, infer = [], executor.infer_shapes

        def counting(g, *args, **kwargs):
            calls.append(g)
            return infer(g, *args, **kwargs)

        monkeypatch.setattr(executor, "infer_shapes", counting)
        monkeypatch.setattr(executor, "ACTIVATION_BUDGET_BYTES", 1 << 19)
        ex = Executor()
        baseline_order(graph, "top1", images=images, labels=[0] * 24, calib=calib, executor=ex)
        groups = len(discover_fusion_groups(graph))
        assert ex.passes == 24 * (groups + 1)
        assert calls[0] is graph and len(calls) == groups + 1
        assert len({id(g) for g in calls}) == len(calls)

    def test_int8_bias_follows_the_input_qparams(self):
        """One int8 Gemm graph fed codes with two qparams in turn gives the
        bits of a fresh graph for each: its bias in accumulator units is
        kept per input qparams."""
        rng = np.random.default_rng(0)
        xq = rng.integers(-128, 128, (2, 6)).astype(np.int8)
        wq = rng.integers(-127, 128, (3, 6)).astype(np.int8)
        bias = rng.standard_normal(3).astype(np.float32)
        qps, out_qp = [QuantParams(0.1, -5), QuantParams(0.03, 7)], QuantParams(0.05, 3)
        g = int8_linear_graph("Gemm", xq, qps[0], wq, 0.02, bias, 1, 0, out_qp, False)
        ex, outs = Executor(), []
        for qp in qps * 2:
            got = ex.run_quantized(g, Tensor(xq, qp))
            fresh = Executor().run_quantized(
                int8_linear_graph("Gemm", xq, qp, wq, 0.02, bias, 1, 0, out_qp, False), Tensor(xq, qp))
            np.testing.assert_array_equal(got.data, fresh.data)
            outs.append(got.data)
        assert not np.array_equal(outs[0], outs[1])


# ---------------------------------------------------------------------------
# one kernel table for both precisions

@st.composite
def int8_qparams(draw):
    """Symmetric or asymmetric qparams, the zero point's ends included."""
    step = draw(st.floats(1e-3, 4.0))
    if draw(st.booleans()):
        return QuantParams(step, 0, symmetric=True)
    return QuantParams(step, draw(st.sampled_from([-128, 127]) | st.integers(-128, 127)))


def padded_pool_windows(x, k, s, p, pad_value):
    """Pool windows by np.pad and a window copy, window axis last."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=pad_value)
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    wins = np.empty((n, c, oh, ow, k * k), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            wins[..., i * k + j] = xp[:, :, i:i + s * oh:s, j:j + s * ow:s]
    return wins


KIND_KERNELS = {"Conv2d": "kernel_conv2d", "DepthwiseConv2d": "kernel_depthwise_conv2d",
                "BatchNorm": "kernel_batchnorm", "ReLU": "kernel_relu", "Add": "kernel_add",
                "MaxPool": "kernel_maxpool", "AvgPool": "kernel_avgpool",
                "GlobalAvgPool": "kernel_global_avgpool", "Gemm": "kernel_conv2d",
                "Flatten": "kernel_flatten", "Softmax": "kernel_softmax"}


class TestKernelTable:
    @given(st.integers(1, 3), st.sampled_from([1, 2, 3, None]), st.integers(0, 2),
           st.sampled_from([np.float32, np.float64, np.int8]), st.integers(1, 2), st.integers(1, 3),
           st.integers(0, 4), st.integers(0, 4), st.booleans(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_pools_equal_padded_window_definition(self, k, stride, padding, dtype, n, c, dh, dw, negative,
                                                  seed):
        """Byte for byte, so that the sign of a zero shows: MaxPool folds the
        taps in (i, j) order, AvgPool sums each window's taps in that order
        along a contiguous axis, whether windows tile the input (stride ==
        kernel, no padding) or not; int8 MaxPool pads with iinfo's least."""
        p = min(padding, k)
        s = k if stride is None else stride
        rng = np.random.default_rng(seed)
        shape = (n, c, k + dh, k + dw)
        if dtype == np.int8:
            x = rng.integers(-128, 128, shape).astype(np.int8)
            least = np.iinfo(dtype).min
        else:
            x = rng.standard_normal(shape).astype(dtype)
            x[rng.random(shape) < 0.3] = 0.0
            x[rng.random(shape) < 0.3] = -0.0
            if negative:  # a maxpool padded with 0 would then read the padding
                x = -np.abs(x) - 1
            least = np.finfo(dtype).min
        taps = padded_pool_windows(x, k, s, p, least)
        want_max = taps[..., 0].copy()
        for t in range(1, k * k):
            np.maximum(want_max, taps[..., t], out=want_max)
        got_max = kernel_maxpool(x, (k, k), (s, s), (p, p))
        assert got_max.dtype == dtype and got_max.tobytes() == want_max.tobytes()
        if dtype != np.int8:
            want_avg = padded_pool_windows(x, k, s, p, 0).mean(axis=-1, dtype=dtype)
            got_avg = kernel_avgpool(x, (k, k), (s, s), (p, p))
            assert got_avg.dtype == dtype and got_avg.tobytes() == want_avg.tobytes()
            got_gap = kernel_global_avgpool(x)
            assert got_gap.tobytes() == x.mean(axis=(2, 3), dtype=dtype).tobytes()

    @pytest.mark.parametrize("pool", [kernel_maxpool, kernel_avgpool])
    def test_pool_larger_than_padded_input(self, pool):
        with pytest.raises(ShapeMismatch):
            pool(np.zeros((1, 1, 2, 2), np.float32), (5, 5), (1, 1), (1, 1))

    @given(st.sampled_from(["ReLU", "MaxPool"]), st.booleans(), st.lists(int8_qparams(), min_size=2, max_size=2),
           int8_qparams(), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_int8_relu_and_maxpool_on_codes_equal_the_dequantized_path(self, kind, fused_relu, in_qps,
                                                                       out_qp, k, stride, padding, seed):
        """Over all 256 codes, an int8 ReLU or MaxPool step equals dequantize ->
        float64 kernel -> _requantize, for each of two input qparams in turn
        on one graph, whose code table is kept per input qparams."""
        p = min(padding, k - 1)
        codes = np.random.default_rng(seed).permutation(np.arange(-128, 128)).astype(np.int8).reshape(1, 1, 16, 16)
        attrs = {"out_qparams": out_qp, "fused_relu": fused_relu}
        if kind == "MaxPool":
            attrs.update(kernel=k, stride=stride, padding=p)
        g = Graph("codes")
        g.add(Node("input", "Input", attrs={"shape": [1, 16, 16]}))
        g.add(Node("op", kind, ["input"], precision=8, attrs=attrs))
        g.add(Node("output", "Output", ["op"]))
        ex = Executor()
        for qp in in_qps * 2:
            real = (codes.astype(np.float64) - qp.zero_point) * qp.step
            if kind == "ReLU":
                real = np.maximum(real, 0)
            else:
                real = padded_pool_windows(real, k, stride, p, np.finfo(np.float64).min).max(axis=-1)
            want = _requantize(real, out_qp, fused_relu)
            got = ex.run_quantized(g, Tensor(codes, qp))
            assert got.qparams == out_qp and got.data.tobytes() == want.data.tobytes()

    def test_int8_softmax_is_unsupported(self):
        qp = QuantParams(0.1, 0)
        g = Graph("softmax8")
        g.add(Node("input", "Input", attrs={"shape": [4]}))
        g.add(Node("q", "Quantize", ["input"], attrs={"out_qparams": qp}))
        g.add(Node("sm", "Softmax", ["q"], precision=8,
                   attrs={"out_qparams": qp}))
        g.add(Node("output", "Output", ["sm"]))
        with pytest.raises(UnsupportedKind):
            Executor().run_quantized(g, Tensor.f32(np.zeros((1, 4), np.float32)))

    def test_fp32_node_rejects_int8_input(self):
        qp = QuantParams(0.1, 0)
        g = Graph("no_dequantize")
        g.add(Node("input", "Input", attrs={"shape": [4]}))
        g.add(Node("q", "Quantize", ["input"], attrs={"out_qparams": qp}))
        g.add(Node("flat", "Flatten", ["q"]))
        g.add(Node("output", "Output", ["flat"]))
        with pytest.raises(MissingQuantParams):
            Executor().run_quantized(g, Tensor.f32(np.zeros((1, 4), np.float32)))

    def test_table_covers_every_compute_kind(self):
        from mixquant import executor
        assert set(executor._KERNELS) == KINDS - {"Input", "Output", "Quantize", "Dequantize"}
        assert set(executor._KERNELS) == set(KIND_KERNELS)

    def test_rebound_kernel_names_reach_every_pass(self, arch_graphs, monkeypatch):
        """A wrapper bound to a module-level kernel name sees each node's call,
        so a tracer that rebinds those names records every kernel."""
        from collections import Counter

        from mixquant import executor
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in set(KIND_KERNELS.values()):
            monkeypatch.setattr(executor, name, counting(name, getattr(executor, name)))
        for arch in ARCHS:
            shape, graphs = arch_graphs[arch]
            for graph, quantized in graphs:
                calls.clear()
                ex = Executor()
                (ex.run_quantized if quantized else ex.run_fp32)(graph, Tensor.f32(np.zeros((1, *shape))))
                want = Counter(KIND_KERNELS[n.kind] for n in graph.nodes if n.kind in KIND_KERNELS)
                want["kernel_relu"] += sum(1 for n in graph.nodes
                                           if n.precision == 32 and n.attrs.get("fused_relu"))
                assert calls == +want, (arch, quantized)


# ---------------------------------------------------------------------------
# the codes rule: a pass checks what enters it, its program every edge

def codes_graph(*nodes):
    """A graph on a (4,) Input from (id, kind, inputs, precision, out_qparams)
    rows, ending in an Output that reads the last row."""
    g = Graph("codes")
    g.add(Node("input", "Input", attrs={"shape": [4]}))
    for nid, kind, inputs, precision, qp in nodes:
        g.add(Node(nid, kind, list(inputs), precision=precision, attrs={"out_qparams": qp} if qp else {}))
    g.add(Node("output", "Output", [nodes[-1][0]]))
    return g


QP = QuantParams(0.1, 0)
FLOATS = Tensor.f32(np.array([[0.3, -1.0, 2.0, 5.0]], np.float32))
CODES = Tensor(np.array([[3, -10, 20, 50]], np.int8), QP)


class TestCodesRule:
    @pytest.mark.parametrize("rows, match", [
        # an int8 node fed a float
        ([("r", "ReLU", ["input"], 32, None), ("r8", "ReLU", ["r"], 8, QP), ("dq", "Dequantize", ["r8"], 32, None)],
         "'r8' reads 'r' as int8 codes, but 'r' holds float"),
        # a Dequantize fed a float
        ([("r", "ReLU", ["input"], 32, None), ("dq", "Dequantize", ["r"], 32, None)],
         "'dq' reads 'r' as int8 codes"),
        # a Quantize fed codes, which it would quantize as if they were real values
        ([("q1", "Quantize", ["input"], 32, QP), ("q2", "Quantize", ["q1"], 32, QuantParams(0.5, 3)),
          ("dq", "Dequantize", ["q2"], 32, None)],
         "'q2' reads 'q1' as float, but 'q1' holds int8 codes"),
        # an Input read by an int8 node and a float node
        ([("r8", "ReLU", ["input"], 8, QP), ("dq", "Dequantize", ["r8"], 32, None),
          ("r", "ReLU", ["input"], 32, None), ("add", "Add", ["dq", "r"], 32, None)],
         "'r' reads 'input' as float, but 'input' holds int8 codes"),
        # a Quantize without out_qparams
        ([("q", "Quantize", ["input"], 32, None), ("dq", "Dequantize", ["q"], 32, None)],
         "'q' writes int8 codes but lacks out_qparams"),
    ])
    def test_miswired_graph_is_rejected(self, rows, match):
        g = codes_graph(*rows)
        with pytest.raises(MissingQuantParams, match=match):
            Executor().run_quantized(g, FLOATS)

    def test_pass_input_kind_is_checked(self):
        """An Input holds what its readers read: codes may start a pass only
        where int8 nodes read the Input, floats only where float nodes do."""
        floats_in = codes_graph(("q", "Quantize", ["input"], 32, QP), ("dq", "Dequantize", ["q"], 32, None))
        with pytest.raises(MissingQuantParams, match="hands 'input' int8 codes"):
            Executor().run_quantized(floats_in, CODES)
        codes_in = codes_graph(("r8", "ReLU", ["input"], 8, QP), ("dq", "Dequantize", ["r8"], 32, None))
        with pytest.raises(MissingQuantParams, match="hands 'input' float"):
            Executor().run_quantized(codes_in, FLOATS)
        assert np.array_equal(Executor().run_quantized(codes_in, CODES).data, np.float32([[0.3, 0, 2, 5]]))

    def test_given_kind_is_checked(self):
        g = codes_graph(("q", "Quantize", ["input"], 32, QP), ("r8", "ReLU", ["q"], 8, QP),
                        ("dq", "Dequantize", ["r8"], 32, None))
        ex = Executor()
        with pytest.raises(MissingQuantParams, match="hands 'q' float"):
            ex.run_quantized(g, FLOATS, given={"q": FLOATS})
        with pytest.raises(MissingQuantParams, match="hands 'dq' int8 codes"):
            ex.run_quantized(g, FLOATS, given={"dq": CODES})
        out = ex.run_quantized(g, FLOATS, given={"q": CODES})
        assert np.array_equal(out.data, np.float32([[0.3, 0, 2, 5]]))

    @given(st.data(), st.sampled_from(ARCHS), st.sampled_from(["unfused", "fused"]))
    @settings(max_examples=50, deadline=None)
    def test_mixed_graphs_hold_what_their_program_says(self, arch_calib, data, arch, stage):
        """apply_mixed_precision graphs, saved and loaded or not, wire every
        edge by the rule, and each step of a pass writes codes exactly where
        the program says its value holds them."""
        import tempfile

        from mixquant import executor
        from mixquant.fusion import discover_fusion_groups, lower_to_stage
        shape, g, calib = arch_calib[arch]
        lowered = lower_to_stage(g, stage)
        anchors = [grp.anchor for grp in discover_fusion_groups(lowered)]
        keep = data.draw(st.lists(st.sampled_from(anchors), unique=True))
        qg = mq.apply_mixed_precision(lowered, keep, calib)
        with tempfile.TemporaryDirectory() as tmp:
            mq.save_model(qg, tmp)
            loaded = mq.load_model(tmp)
        for graph in (qg, loaded):
            program = executor._program(graph)
            assert program.unquantized is None and program.miswired is None

        held, bind = {}, executor._bind

        def recording(node):
            step = bind(node)

            def run(inp, ins):
                out = held[node.id] = step(inp, ins)
                return out
            return run

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(executor, "_bind", recording)
            Executor().run_quantized(qg, Tensor.f32(mq.gen_images(2, shape, 5)))
        codes = executor._program(qg).codes
        assert held.keys() == {n.id for n in qg.nodes}
        assert {nid: t.qparams is not None for nid, t in held.items()} == codes


@pytest.fixture(scope="module")
def arch_calib(all_archs):
    """Per arch: the input shape, the FP32 graph and its calibration profile."""
    out = {}
    for name, g in all_archs.items():
        shape = tuple(int(d) for d in g.input_node.attrs["shape"])
        out[name] = shape, g, mq.profile_activations(g, mq.gen_images(4, shape, 11))
    return out
