import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import signal

import mixquant as mq
from mixquant.errors import (InvariantViolation, MissingQuantParams, NonPositiveVariance, ShapeMismatch,
                             UnsupportedKind)
from mixquant.executor import (
    MAX_EXACT_K,
    Executor,
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

from conftest import run_f32

# Output of mininet(seed 42) on gen_images(1, (3,16,16), 123), pinned at first
# implementation and cross-checked against the scipy-based oracle below.
MININET_GOLDEN = np.array([
    0.159620196, 0.031039290, 0.164319858, 0.041680433, 0.280350566,
    0.039827872, 0.050020613, 0.102116905, 0.059311889, 0.071712330,
], dtype=np.float32)


def gemm(x, w, b=None):
    """The kernel table's Gemm entry: y = x @ w.T + b, run as a 1x1 conv."""
    weights = {"weight": w} if b is None else {"weight": w, "bias": b}
    return mq.executor._KERNELS["Gemm"](Node("fc", "Gemm"), [x], weights)


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
        y, _ = Executor().run_fp32(g, Tensor.f32(np.array([[[[-1.0, 2.0]]]])))
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
        got = kernel_conv2d(x, w, b, stride, padding)
        want = scipy_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_depthwise_vs_per_channel_oracle(self):
        rng = Lcg(23)
        x = rng.uniform(-1, 1, (1, 2, 6, 6)).astype(np.float32)
        w = rng.uniform(-1, 1, (2, 1, 3, 3)).astype(np.float32)
        got = kernel_depthwise_conv2d(x, w, None, 1, 1)
        for c in range(2):
            want = scipy_conv2d(x[:, c:c + 1], w[c:c + 1], None, 1, 1)
            np.testing.assert_allclose(got[:, c:c + 1], want, rtol=1e-5, atol=1e-6)
        # each filter touches only its own channel
        x2 = x.copy()
        x2[:, 1] = 0.0
        got2 = kernel_depthwise_conv2d(x2, w, None, 1, 1)
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
        with pytest.raises(NonPositiveVariance):
            kernel_batchnorm(np.zeros((1, 1, 1, 1), np.float32), np.ones(1), np.zeros(1),
                             np.zeros(1), np.array([-1.0]), 0.0)

    def test_maxpool(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        assert np.array_equal(kernel_maxpool(x, 2, 2), [[[[4.0]]]])

    def test_avgpool(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        assert np.array_equal(kernel_avgpool(x, 2, 2), [[[[2.5]]]])

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
    def test_mininet_golden(self, mininet):
        y, _ = run_f32(mininet, mq.gen_images(1, (3, 16, 16), 123))
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
        got, _ = run_f32(mininet, mq.gen_images(1, (3, 16, 16), 123))
        np.testing.assert_allclose(got.data, want, rtol=1e-4, atol=1e-6)

    def test_deterministic_bit_exact(self, mininet, calib_images):
        a, _ = run_f32(mininet, calib_images)
        b, _ = run_f32(mininet, calib_images)
        assert np.array_equal(a.data, b.data)

    def test_pass_counter(self, mininet, calib_images):
        ex = Executor()
        run_f32(mininet, calib_images, executor=ex)
        run_f32(mininet, calib_images, idx=1, executor=ex)
        assert ex.passes == 2

    def test_trace_covers_non_input_nodes(self, mininet, calib_images):
        _, trace = run_f32(mininet, calib_images, capture=True)
        expected = {n.id for n in mininet.nodes if n.kind != "Input"}
        assert set(trace.outputs) == expected

    def test_no_capture_empty_trace(self, mininet, calib_images):
        _, trace = run_f32(mininet, calib_images, capture=False)
        assert trace.outputs == {}

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
        y, _ = Executor().run_quantized(g, Tensor.f32(x))
        assert np.abs(y.data - x).max() <= qp.step / 2 + 1e-9

    def test_unit_scale_conv_hand_value(self):
        qp1 = QuantParams(1.0, 0)
        g = Graph("c1x1")
        g.add(Node("input", "Input", attrs={"shape": [1, 1, 1]}))
        g.add(Node("q", "Quantize", ["input"], attrs={"out_qparams": qp1}))
        conv = Node("c", "Conv2d", ["q"],
                    attrs={"stride": 1, "padding": 0, "out_qparams": qp1},
                    weights={"weight": Tensor.i8(np.array([[[[3]]]], np.int8),
                                                 QuantParams(1.0, 0, symmetric=True))},
                    precision=8)
        g.add(conv)
        g.add(Node("output", "Output", ["c"]))
        y, _ = Executor().run_quantized(g, Tensor.f32(np.array([[[[2.0]]]], np.float32)))
        assert y.data.ravel()[0] == 6 and y.dtype == "i8"

    def test_unit_scale_conv_matches_fp32_exactly(self, mininet_calib):
        """Integer inputs, all scales 1: the int8 conv equals FP32 conv bit-for-bit."""
        rng = Lcg(9)
        xi = np.floor(rng.uniform(-5, 6, (1, 2, 5, 5))).astype(np.float32)
        wi = np.floor(rng.uniform(-3, 4, (3, 2, 3, 3))).astype(np.float32)
        qp_act = QuantParams(1.0, 0)
        fp = mq.executor.kernel_conv2d(xi, wi, None, 1, 1)
        g = Graph("int")
        g.add(Node("input", "Input", attrs={"shape": [2, 5, 5]}))
        g.add(Node("q", "Quantize", ["input"], attrs={"out_qparams": qp_act}))
        g.add(Node("c", "Conv2d", ["q"],
                   attrs={"stride": 1, "padding": 1, "out_qparams": QuantParams(1.0, 0)},
                   weights={"weight": Tensor.i8(wi.astype(np.int8), QuantParams(1.0, 0, symmetric=True))},
                   precision=8))
        g.add(Node("d", "Dequantize", ["c"]))
        g.add(Node("output", "Output", ["d"]))
        y, _ = Executor().run_quantized(g, Tensor.f32(xi))
        np.testing.assert_array_equal(y.data, np.clip(fp, -128, 127))

    def test_local_error_bound_at_quantize_point(self, mininet, mininet_calib, calib_images):
        """Dequantized activation differs from its own pre-quantization input by
        at most step/2 elementwise at the Quantize node itself."""
        qg = mq.apply_mixed_precision(mininet, [], mininet_calib)
        quantize_nodes = [n for n in qg.nodes if n.kind == "Quantize"]
        assert quantize_nodes
        ex = Executor()
        x = Tensor.f32(calib_images[0:1])
        values = {}
        for nid in mq.topo_sort(qg):
            n = qg.node(nid)
            ins = [values[s] for s in n.inputs]
            values[nid] = ex._exec_node(qg, n, ins, x)
        for qn in quantize_nodes:
            src = values[qn.inputs[0]].data
            back = mq.dequantize(values[qn.id]).data
            qp = qn.attrs["out_qparams"]
            in_range = np.abs(src) <= (qp.qmax - qp.zero_point) * qp.step
            err = np.abs(back - src)[in_range]
            assert err.max() <= qp.step / 2 + 1e-9

    def test_fully_int8_mininet_logit_sqnr(self, mininet, mininet_calib, calib_images):
        from mixquant.cli import final_logit_sqnr
        qg = mq.apply_mixed_precision(mininet, [], mininet_calib)
        assert final_logit_sqnr(qg, mininet, calib_images[:8]) > 10.0

    def test_quantized_deterministic(self, mininet, mininet_calib, calib_images):
        qg = mq.apply_mixed_precision(mininet, [], mininet_calib)
        ex = Executor()
        x = Tensor.f32(calib_images[0:1])
        a, _ = ex.run_quantized(qg, x)
        b, _ = ex.run_quantized(qg, x)
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
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (xp.shape[2] - kh) // stride + 1
    ow = (xp.shape[3] - kw) // stride + 1
    cols = np.empty(x.shape[:2] + (kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
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


class TestExactInt8Accumulation:
    @given(int8_linear_cases())
    @settings(max_examples=150, deadline=None)
    def test_int8_linear_matches_int64_loop_oracle(self, case):
        kind, xq, in_qp, wq, w_step, bias, stride, padding, out_qp, fused_relu = case
        weights = {"weight": Tensor(wq, QuantParams(w_step, 0, symmetric=True))}
        if bias is not None:
            weights["bias"] = Tensor(bias)
        g = Graph("int8")
        g.add(Node("input", "Input", attrs={"shape": list(xq.shape[1:])}))
        g.add(Node("op", kind, ["input"], weights=weights, precision=8,
                   attrs={"stride": stride, "padding": padding, "fused_relu": fused_relu,
                          "out_qparams": out_qp}))
        g.add(Node("output", "Output", ["op"]))
        y, _ = Executor().run_quantized(g, Tensor(xq, in_qp))
        want = int_linear_oracle(kind, xq, in_qp, wq, w_step, bias, stride, padding, out_qp, fused_relu)
        assert y.dtype == "i8"
        np.testing.assert_array_equal(y.data, want)

    def test_accumulation_bound_guard(self):
        assert 255 * 127 * MAX_EXACT_K < 2 ** 53 <= 255 * 127 * (MAX_EXACT_K + 1)
        qp = QuantParams(0.1, 0)
        # a zero-stride view: K is past the bound without allocating it
        wide = np.broadcast_to(np.int8(1), (1, MAX_EXACT_K + 1))
        node = Node("fc", "Gemm", ["input"], precision=8,
                    attrs={"out_qparams": qp},
                    weights={"weight": Tensor(wide, QuantParams(0.1, 0, symmetric=True))})
        x = Tensor(np.zeros((1, 4), np.int8), qp)
        with pytest.raises(InvariantViolation):
            Executor()._exec_node(Graph("g"), node, [x], x)


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
        got = kernel_depthwise_conv2d(x, wt, b, stride, padding)
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
        np.testing.assert_array_equal(kernel_conv2d(x, wt, None, stride, padding), want)

    def test_depthwise_rejects_channel_multiplier(self):
        with pytest.raises(ShapeMismatch):
            kernel_depthwise_conv2d(np.zeros((1, 2, 4, 4), np.float32),
                                    np.zeros((2, 2, 3, 3), np.float32), None)


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
            out, trace = run(graph, Tensor.f32(images), capture=True)
            for j in range(n):
                one, one_trace = run(graph, Tensor.f32(images[j:j + 1]), capture=True)
                assert np.array_equal(out.data[j:j + 1], one.data)
                assert trace.outputs.keys() == one_trace.outputs.keys()
                for nid, t in one_trace.outputs.items():
                    assert np.array_equal(trace.outputs[nid].data[j:j + 1], t.data), nid
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
        _, trace = run_f32(mininet, calib_images, capture=["b2_conv", "fc"])
        assert set(trace.outputs) == {"b2_conv", "fc"}


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
        """The per-image cost is the largest step of the plan. FP32 tiny graph,
        at the conv: the input (16 floats) and the conv output (32 floats)
        at 4 bytes, plus 9*16 window columns and a 6x6 padded copy at 4 bytes:
        64 + 128 + 720 = 912. All-int8: input 64, then Quantize 16 x 8 = 128,
        then the conv: its input 128 and output 32 x 8 = 256, plus columns,
        padded copy and the float64 input copy (144 + 36 + 16) x 8 = 1568:
        1952 bytes. A captured FP32 output counts once, as the trace's."""
        from mixquant import executor

        g = tiny_conv_graph()
        calib = mq.profile_activations(g, mq.gen_images(2, (1, 4, 4), 3))
        q = mq.apply_mixed_precision(g, [], calib)
        assert [n.kind for n in q.nodes if n.precision == 8] == ["Conv2d", "ReLU"]
        for graph, capture, per_image in ((g, False, 912), (g, ["conv"], 912), (g, True, 912),
                                          (q, False, 1952)):
            monkeypatch.setattr(executor, "ACTIVATION_BUDGET_BYTES", 3 * per_image + per_image - 1)
            assert executor.batch_size(graph, capture) == 3, (capture, per_image)
            monkeypatch.setattr(executor, "ACTIVATION_BUDGET_BYTES", 4 * per_image)
            assert executor.batch_size(graph, capture) == 4, (capture, per_image)
        monkeypatch.setattr(executor, "ACTIVATION_BUDGET_BYTES", 1)
        assert executor.batch_size(mininet) == 1

    def test_batches_cover_images_in_order(self, mininet, calib_images, monkeypatch):
        from mixquant import executor

        monkeypatch.setattr(executor, "ACTIVATION_BUDGET_BYTES", 1 << 21)
        step = executor.batch_size(mininet)
        assert step > 1
        batches = list(executor.image_batches(calib_images[:7], (mininet, False)))
        assert [b.shape[0] for b in batches][:-1] == [step] * (len(batches) - 1)
        assert np.array_equal(np.concatenate([b.data for b in batches]), calib_images[:7])


# ---------------------------------------------------------------------------
# the execution plan: cached by wiring, frees each value after its last reader

def caller_passes(graph):
    """Per caller, the (graph, capture) passes it runs on each batch, as the
    pipeline commands build them."""
    from mixquant.fusion import lower_to_stage
    from mixquant.sensitivity import logits_node_id, quantizable_in_topo_order

    shape = tuple(int(d) for d in graph.input_node.attrs["shape"])
    calib = mq.profile_activations(graph, mq.gen_images(2, shape, 5))
    fused = lower_to_stage(graph, "fused")
    all_int8 = mq.apply_mixed_precision(fused, [], calib)
    mixed = mq.apply_mixed_precision(fused, quantizable_in_topo_order(fused)[::3], calib)
    qids = quantizable_in_topo_order(graph)
    qids_fused = quantizable_in_topo_order(fused)
    logits = logits_node_id(graph)
    return {
        "evaluate": [(all_int8, [logits_node_id(all_int8)])],
        "evaluate_mixed": [(mixed, [logits_node_id(mixed)])],
        "calibrate": [(graph, [n.id for n in graph.nodes if n.kind not in ("Input", "Output")])],
        "analyze": [(graph, qids), (mq.apply_mixed_precision(graph, [], calib), qids)],
        "analyze_fused": [(fused, qids_fused), (all_int8, qids_fused)],
        "reference": [(graph, [logits])],
        "top1": [(mixed, False)],
    }


# images per pass of each caller at the 1 MiB budget, min over its passes
BATCH_TABLE = {
    "mininet": {"evaluate": 2, "calibrate": 2, "analyze": 1, "reference": 4},
    "mini_resnet": {"evaluate": 7, "calibrate": 9, "analyze": 5, "reference": 18},
    "mini_mobilenet": {"evaluate": 2, "calibrate": 3, "analyze": 2, "reference": 5},
}


@pytest.fixture(scope="module")
def arch_passes(all_archs):
    return {arch: caller_passes(g) for arch, g in all_archs.items()}


class TestExecutionPlan:
    def test_rewired_graph_gets_a_fresh_plan(self, mininet, calib_images):
        """Rewiring node.inputs in place between passes never reuses the old
        plan: the second pass equals a pass over a fresh copy."""
        g = mininet.copy()
        ex = Executor()
        before, _ = ex.run_fp32(g, Tensor.f32(calib_images[:3]))
        # skip b3: b4_conv reads b2_relu, and b3 becomes dead
        g.node("b4_conv").inputs[0] = "b2_relu"
        after, trace = ex.run_fp32(g, Tensor.f32(calib_images[:3]), capture=True)
        fresh, fresh_trace = Executor().run_fp32(g.copy(), Tensor.f32(calib_images[:3]), capture=True)
        assert not np.array_equal(before.data, after.data)
        assert np.array_equal(after.data, fresh.data)
        assert trace.outputs.keys() == fresh_trace.outputs.keys()
        for nid, t in fresh_trace.outputs.items():
            assert np.array_equal(trace.outputs[nid].data, t.data), nid
        # and back: an equal wiring shares the cached plan
        g.node("b4_conv").inputs[0] = "b3_relu"
        again, _ = ex.run_fp32(g, Tensor.f32(calib_images[:3]))
        assert np.array_equal(again.data, before.data)

    def test_plan_frees_after_last_reader(self, mininet):
        from mixquant.executor import _plan
        plan = _plan(mininet)
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
        runs, unless the trace captures it."""
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
        _, trace = run(graph, images, capture=["b1_conv"])
        assert alive_at_softmax == [False, not quantized]  # int8 captures keep a dequantized copy
        assert (trace.outputs["b1_conv"].data is first[0]()) == (not quantized)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_batch_table(self, arch_passes, arch):
        from mixquant.executor import batch_size
        got = {caller: min(batch_size(g, c) for g, c in arch_passes[arch][caller])
               for caller in BATCH_TABLE[arch]}
        assert got == BATCH_TABLE[arch]

    @pytest.mark.parametrize("arch", ARCHS)
    def test_pass_peak_stays_within_budget(self, arch_passes, arch):
        """One pass at batch_size(graph, capture) images allocates at most
        ACTIVATION_BUDGET_BYTES at its peak, as tracemalloc sees numpy's
        allocations, for every caller's graph and capture set."""
        import tracemalloc

        from mixquant.executor import ACTIVATION_BUDGET_BYTES, batch_size
        shape = next(iter(arch_passes[arch].values()))[0][0].input_node.attrs["shape"]
        peaks = {}
        for caller, passes in arch_passes[arch].items():
            for i, (graph, capture) in enumerate(passes):
                n = batch_size(graph, capture)
                images = Tensor.f32(mq.gen_images(n, tuple(shape), 17))
                quantized = any(node.precision == 8 for node in graph.nodes)
                ex = Executor()
                run = ex.run_quantized if quantized else ex.run_fp32
                run(graph, images, capture=capture)  # warm the plan cache
                tracemalloc.start()
                try:
                    out, trace = run(graph, images, capture=capture)
                    peaks[caller, i] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                del out, trace
        assert max(peaks.values()) <= ACTIVATION_BUDGET_BYTES, peaks


# ---------------------------------------------------------------------------
# one kernel table for both precisions; pools take the conv's window extractor

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
    @given(st.integers(1, 3), st.sampled_from([1, 2, None]), st.integers(0, 1),
           st.sampled_from([np.float32, np.float64]), st.integers(1, 2), st.integers(1, 3),
           st.integers(0, 4), st.integers(0, 4), st.booleans(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_pools_equal_padded_window_definition(self, k, stride, padding, dtype, n, c, dh, dw,
                                                  negative, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, k + dh, k + dw)).astype(dtype)
        if negative:  # a maxpool padded with 0 would then read the padding
            x = -np.abs(x) - 1
        s = k if stride is None else stride
        want_max = padded_pool_windows(x, k, s, padding, np.finfo(dtype).min).max(axis=-1)
        want_avg = padded_pool_windows(x, k, s, padding, 0).mean(axis=-1, dtype=dtype)
        got_max = kernel_maxpool(x, k, stride, padding)
        got_avg = kernel_avgpool(x, k, stride, padding)
        assert got_max.dtype == got_avg.dtype == dtype
        np.testing.assert_array_equal(got_max, want_max)
        np.testing.assert_array_equal(got_avg, want_avg)

    @pytest.mark.parametrize("pool", [kernel_maxpool, kernel_avgpool])
    def test_pool_larger_than_padded_input(self, pool):
        with pytest.raises(ShapeMismatch):
            pool(np.zeros((1, 1, 2, 2), np.float32), 5, 1, 1)

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
