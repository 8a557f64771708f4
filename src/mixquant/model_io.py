"""Model serialization and deterministic synthetic test models.

A model on disk is a directory holding `manifest.json` (graph structure,
format version, blob table, as compact sorted-key JSON; any JSON layout
loads) and `weights.bin` (concatenated little-endian tensor blobs).
Round-trips are bit-exact.

Synthetic models are generated from a fixed 64-bit linear congruential
generator (Knuth's MMIX multiplier), not a library RNG, so the same
(arch, seed) pair yields byte-identical weights on any platform forever.
Array draws jump ahead in blocks of 4,096 states with one uint64
multiply-add each (F. Brown, "Random Number Generation with Arbitrary
Strides", 1994), and give the same stream as one `next_u64` call per value.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import (CorruptBlob, EmptyImageBatch, FormatVersionMismatch, InvalidAttribute,
                     InvariantViolation, NonFiniteValue, UnknownArch)
from .ir import (KINDS, QUANTIZABLE_KINDS, WEIGHTED_KINDS, Graph, Node, QuantParams, Tensor, _reads_codes,
                 _window, _writes_codes)

FORMAT_VERSION = 1

_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1
_BLOCK = 4096


def _jump_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A[j-1] = a^j and C[j-1] = c * (a^(j-1) + ... + 1) (mod 2^64) for
    j = 1..n, so the j-th state after s is A[j-1] * s + C[j-1]. Built by
    doubling: A_(m+j) = A_j * A_m, C_(m+j) = A_j * C_m + C_j."""
    a = np.empty(n, dtype=np.uint64)
    c = np.empty(n, dtype=np.uint64)
    a[0], c[0] = _LCG_MUL, _LCG_INC
    m = 1
    while m < n:
        k = min(m, n - m)
        a[m:m + k] = a[:k] * a[m - 1]  # uint64 arrays wrap mod 2^64
        c[m:m + k] = a[:k] * c[m - 1] + c[:k]
        m += k
    return a, c


_JUMP_A, _JUMP_C = _jump_tables(_BLOCK)


class Lcg:
    """64-bit LCG: state' = state * 6364136223846793005 + 1442695040888963407 (mod 2^64).

    uniform(lo, hi, size) draws an array of floats in [lo, hi) from the top 53
    bits of each state. It computes its states in blocks of up to 4,096 from
    the state before the block by jump-ahead; values and end state equal those
    of one next_u64() call per element.
    """

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state * _LCG_MUL + _LCG_INC) & _MASK64
        return self.state

    def uniform(self, lo: float, hi: float, size) -> np.ndarray:
        n = int(np.prod(size))
        states = np.empty(n, dtype=np.uint64)
        for start in range(0, n, _BLOCK):
            block = states[start:start + _BLOCK]
            np.multiply(_JUMP_A[:block.size], np.uint64(self.state), out=block)
            block += _JUMP_C[:block.size]
            self.state = int(block[-1])
        states >>= 11
        out = states.astype(np.float64)
        out /= float(1 << 53)
        out *= hi - lo
        out += lo
        return out.reshape(size)


# ---------------------------------------------------------------------------
# synthetic architectures


def _conv_weights(rng: Lcg, c_out: int, c_in: int, k: int) -> tuple[Tensor, Tensor]:
    bound = float(np.sqrt(6.0 / (c_in * k * k)))  # He-uniform for ReLU stacks
    w = rng.uniform(-bound, bound, (c_out, c_in, k, k)).astype(np.float32)
    b = rng.uniform(-0.1, 0.1, (c_out,)).astype(np.float32)
    return Tensor(w), Tensor(b)


def _bn_weights(rng: Lcg, c: int) -> dict[str, Tensor]:
    return {
        "gamma": Tensor(rng.uniform(0.8, 1.2, (c,)).astype(np.float32)),
        "beta": Tensor(rng.uniform(-0.1, 0.1, (c,)).astype(np.float32)),
        "mean": Tensor(rng.uniform(-0.1, 0.1, (c,)).astype(np.float32)),
        "var": Tensor(rng.uniform(0.5, 1.5, (c,)).astype(np.float32)),
    }


class _Builder:
    def __init__(self, name: str, rng: Lcg):
        self.g = Graph(name)
        self.rng = rng
        self.last = "input"

    def input(self, shape):
        self.g.add(Node("input", "Input", attrs={"shape": list(shape)}))
        return self

    def conv_bn_relu(self, tag: str, c_in: int, c_out: int, k: int = 3, stride: int = 1,
                     padding: int = 1, relu: bool = True, src: str | None = None):
        w, b = _conv_weights(self.rng, c_out, c_in, k)
        self.g.add(Node(f"{tag}_conv", "Conv2d", [src or self.last],
                        attrs={"stride": stride, "padding": padding},
                        weights={"weight": w, "bias": b}))
        self.g.add(Node(f"{tag}_bn", "BatchNorm", [f"{tag}_conv"],
                        attrs={"epsilon": 1e-5}, weights=_bn_weights(self.rng, c_out)))
        self.last = f"{tag}_bn"
        if relu:
            self.g.add(Node(f"{tag}_relu", "ReLU", [self.last]))
            self.last = f"{tag}_relu"
        return self.last

    def depthwise_bn_relu(self, tag: str, c: int, stride: int = 1):
        bound = float(np.sqrt(6.0 / 9))
        w = Tensor(self.rng.uniform(-bound, bound, (c, 1, 3, 3)).astype(np.float32))
        b = Tensor(self.rng.uniform(-0.1, 0.1, (c,)).astype(np.float32))
        self.g.add(Node(f"{tag}_dwconv", "DepthwiseConv2d", [self.last],
                        attrs={"stride": stride, "padding": 1},
                        weights={"weight": w, "bias": b}))
        self.g.add(Node(f"{tag}_bn", "BatchNorm", [f"{tag}_dwconv"],
                        attrs={"epsilon": 1e-5}, weights=_bn_weights(self.rng, c)))
        self.g.add(Node(f"{tag}_relu", "ReLU", [f"{tag}_bn"]))
        self.last = f"{tag}_relu"
        return self.last

    def add(self, tag: str, other: str):
        self.g.add(Node(tag, "Add", [self.last, other]))
        self.last = tag
        return self.last

    def relu(self, tag: str):
        self.g.add(Node(tag, "ReLU", [self.last]))
        self.last = tag
        return self.last

    def head(self, c: int, classes: int):
        self.g.add(Node("gap", "GlobalAvgPool", [self.last]))
        bound = float(np.sqrt(6.0 / c))
        w = Tensor(self.rng.uniform(-bound, bound, (classes, c)).astype(np.float32))
        b = Tensor(self.rng.uniform(-0.1, 0.1, (classes,)).astype(np.float32))
        self.g.add(Node("fc", "Gemm", ["gap"], weights={"weight": w, "bias": b}))
        self.g.add(Node("softmax", "Softmax", ["fc"]))
        self.g.add(Node("output", "Output", ["softmax"]))
        return self.g


def _mininet(rng: Lcg) -> Graph:
    # 8 conv+bn+relu blocks, one residual add, 3x16x16 input, 10 classes
    b = _Builder("mininet", rng)
    b.input((3, 16, 16))
    b.conv_bn_relu("b1", 3, 16)
    skip = b.conv_bn_relu("b2", 16, 16)
    b.conv_bn_relu("b3", 16, 16)
    b.conv_bn_relu("b4", 16, 16, relu=False)   # conv->bn, add(skip), relu
    b.add("b4_add", skip)
    b.relu("b4_relu")
    b.conv_bn_relu("b5", 16, 32, stride=2)
    b.conv_bn_relu("b6", 32, 32)
    b.conv_bn_relu("b7", 32, 32)
    b.conv_bn_relu("b8", 32, 32)
    return b.head(32, 10)


def _mini_resnet(rng: Lcg) -> Graph:
    b = _Builder("mini_resnet", rng)
    b.input((3, 16, 16))
    b.conv_bn_relu("stem", 3, 16)
    b.g.add(Node("pool1", "MaxPool", [b.last], attrs={"kernel": 2, "stride": 2}))
    b.last = "pool1"
    # identity residual block
    skip = b.last
    b.conv_bn_relu("r1a", 16, 16)
    b.conv_bn_relu("r1b", 16, 16, relu=False)
    b.add("r1_add", skip)
    b.relu("r1_relu")
    # downsampling residual block with 1x1 projection on the skip path
    trunk_in = b.last
    b.conv_bn_relu("r2a", 16, 32, stride=2)
    b.conv_bn_relu("r2b", 32, 32, relu=False)
    main = b.last
    b.conv_bn_relu("r2p", 16, 32, k=1, stride=2, padding=0, relu=False, src=trunk_in)
    proj = b.last
    b.last = main
    b.add("r2_add", proj)
    b.relu("r2_relu")
    b.g.add(Node("pool2", "AvgPool", [b.last], attrs={"kernel": 2, "stride": 2}))
    b.last = "pool2"
    return b.head(32, 10)


def _mini_mobilenet(rng: Lcg) -> Graph:
    b = _Builder("mini_mobilenet", rng)
    b.input((3, 16, 16))
    b.conv_bn_relu("stem", 3, 16)
    widths = [(16, 16), (16, 32), (32, 32), (32, 64)]
    for i, (c_in, c_out) in enumerate(widths, start=1):
        stride = 2 if c_in != c_out else 1
        b.depthwise_bn_relu(f"m{i}_dw", c_in, stride=stride)
        b.conv_bn_relu(f"m{i}_pw", c_in, c_out, k=1, padding=0)
    return b.head(64, 10)


_ARCHS = {"mininet": _mininet, "mini_resnet": _mini_resnet, "mini_mobilenet": _mini_mobilenet}


def gen_synthetic(arch: str, seed: int) -> Graph:
    """Build a deterministic synthetic model; (arch, seed) pins every weight bit."""
    if arch not in _ARCHS:
        raise UnknownArch(f"unknown architecture {arch!r}; choose from {sorted(_ARCHS)}")
    g = _ARCHS[arch](Lcg(seed))
    g.validate()
    return g


def gen_images(count: int, shape: tuple[int, int, int], seed: int) -> np.ndarray:
    """Deterministic image batch, values uniform in [-1, 1), shape (count, C, H, W)."""
    if count < 1:
        raise EmptyImageBatch("need at least one image")
    rng = Lcg(seed)
    return rng.uniform(-1.0, 1.0, (count, *shape)).astype(np.float32)


def scale_node_weights(graph: Graph, node_id: str, factor: float, stride: int = 1) -> Graph:
    """Return a copy of the graph with one node's weights scaled by `factor`.

    stride > 1 scales only every stride-th element (flat order), which makes
    the weight distribution heavy-tailed: the per-tensor quantization step
    inflates by ~factor while most weights stay small, so the layer's weight
    SQNR collapses. Uniform scaling (stride 1) leaves relative quantization
    error unchanged and is only useful for scale-invariance checks.
    """
    g = graph.copy()
    n = g.node(node_id)
    w = n.weights["weight"].data.copy()
    flat = w.reshape(-1)
    flat[::stride] *= np.float32(factor)
    if not np.isfinite(flat).all():
        raise NonFiniteValue(f"scaling {node_id!r} by {factor:g} makes its weights non-finite")
    n.weights = dict(n.weights)
    n.weights["weight"] = Tensor(w.astype(np.float32))
    return g


# ---------------------------------------------------------------------------
# serialization

_DTYPE_CODES = {"f32": ("<f4", 4), "i8": ("<i1", 1)}


def _attr_to_json(v):
    if isinstance(v, QuantParams):
        return {"__qparams__": v.to_json()}
    if isinstance(v, (list, tuple)):
        return [_attr_to_json(x) for x in v]
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _qparams_from_json(d, where) -> QuantParams:
    try:
        return QuantParams.from_json(d)
    except (InvariantViolation, TypeError, ValueError) as exc:
        raise InvalidAttribute(f"{where}: malformed quantization parameters {d!r}: {exc}") from None


def _attr_from_json(v, where):
    if isinstance(v, dict) and "__qparams__" in v:
        return _qparams_from_json(v["__qparams__"], where)
    return v


def _check_node(node: Node) -> None:
    """Reject, with InvalidAttribute, what the executor and shape inference
    could not read: a wrong input count, a malformed window (ir._window), an
    Input shape other than three positive ints, a missing weight or one of
    the wrong rank, a depthwise channel multiplier, BatchNorm parameters of
    unequal shapes, malformed flags, and `out_qparams` missing where int8
    codes are written (ir._writes_codes) or present where they are not.
    What depends on the node's input is left to infer_shapes."""
    def bad(what: str):
        raise InvalidAttribute(f"node {node.id!r} ({node.kind}): {what}")

    arity = {"Input": 0, "Add": 2}.get(node.kind, 1)
    if len(node.inputs) != arity:
        bad(f"takes {arity} inputs, lists {len(node.inputs)}")
    if node.precision not in (8, 32) or (node.precision == 8 and node.kind not in QUANTIZABLE_KINDS):
        bad(f"precision {node.precision!r} is not supported")
    required = (("gamma", "beta", "mean", "var") if node.kind == "BatchNorm"
                else ("weight",) if node.kind in WEIGHTED_KINDS else ())
    for name in required:
        if name not in node.weights:
            bad(f"lacks its {name} weight")
    for name, t in node.weights.items():
        rank = 1 if name != "weight" else 2 if node.kind == "Gemm" else 4
        if t.data.ndim != rank:
            bad(f"{name} has rank {t.data.ndim}, expected {rank}")
    if node.kind == "BatchNorm" and len({node.weights[k].shape for k in required}) != 1:
        bad(f"gamma, beta, mean and var differ in shape: {[node.weights[k].shape for k in required]}")
    if node.kind == "DepthwiseConv2d" and node.weights["weight"].shape[1] != 1:
        bad(f"depthwise weight {node.weights['weight'].shape} holds more than one filter per channel")

    if node.kind == "Input":
        shape = node.attrs.get("shape")
        if not (isinstance(shape, list) and len(shape) == 3
                and all(type(d) is int and d >= 1 for d in shape)):
            bad(f"shape must be three positive ints (C, H, W), got {shape!r}")
    if node.kind in ("Conv2d", "DepthwiseConv2d", "MaxPool", "AvgPool"):
        _window(node)
    eps = node.attrs.get("epsilon", 0.0)
    if type(eps) not in (int, float) or not 0 <= eps <= sys.float_info.max:
        bad(f"epsilon must be a finite number >= 0, got {eps!r}")
    if type(node.attrs.get("fused_relu", False)) is not bool:
        bad(f"fused_relu must be true or false, got {node.attrs['fused_relu']!r}")
    if type(node.attrs.get("profile_id", "")) is not str:
        bad(f"profile_id must be a string, got {node.attrs['profile_id']!r}")
    if isinstance(node.attrs.get("out_qparams"), QuantParams) != _writes_codes(node):
        bad("int8 nodes and Quantize, and only they, carry QuantParams out_qparams")


def save_model(graph: Graph, path) -> None:
    """Write `manifest.json` + `weights.bin` under `path` (created if absent)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    blob_table = {}
    payload = bytearray()
    nodes_json = []
    for n in graph.nodes:
        weights_json = {}
        for wname in sorted(n.weights):
            t = n.weights[wname]
            blob_name = f"{n.id}.{wname}"
            code, _ = _DTYPE_CODES[t.dtype]
            raw = np.ascontiguousarray(t.data).astype(code, copy=False).tobytes()
            blob_table[blob_name] = {
                "dtype": t.dtype,
                "shape": list(t.shape),
                "offset": len(payload),
                "length": len(raw),
            }
            payload.extend(raw)
            ref = {"blob": blob_name}
            if t.qparams is not None:
                ref["qparams"] = t.qparams.to_json()
            weights_json[wname] = ref
        nodes_json.append({
            "id": n.id,
            "kind": n.kind,
            "inputs": list(n.inputs),
            "attrs": {k: _attr_to_json(v) for k, v in n.attrs.items()},
            "weights": weights_json,
            "precision": n.precision,
        })
    manifest = {
        "format_version": FORMAT_VERSION,
        "name": graph.name,
        "nodes": nodes_json,
        "blobs": blob_table,
    }
    # compact, so that json writes it through its C encoder
    (path / "manifest.json").write_text(json.dumps(manifest, separators=(",", ":"), sort_keys=True))
    (path / "weights.bin").write_bytes(bytes(payload))


def load_model(path) -> Graph:
    """Inverse of save_model; bit-exact on structure, attrs, and weights."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json under {path}")
    manifest = read_json_object(manifest_path, nodes=list, blobs=dict, name=str | None)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"manifest format {manifest.get('format_version')} != supported {FORMAT_VERSION}")
    try:
        return _graph_of(manifest, (path / "weights.bin").read_bytes(), manifest_path)
    except (KeyError, TypeError, AttributeError, ValueError):
        # name the first record of the wrong JSON types, checked only now so that a
        # valid manifest costs nothing; where there is none, the error stands
        for i, nj in enumerate(manifest["nodes"]):
            where = f"{manifest_path}: node {i}"
            _json_members(nj, where, id=str, kind=str, inputs=list, attrs=dict, weights=dict, precision=int)
            if not all(type(src) is str for src in nj["inputs"]):
                raise CorruptBlob(f"{where}: 'inputs' {nj['inputs']!r} are not all node ids")
            for wname, ref in nj["weights"].items():
                _json_members(ref, f"{where}: weight {wname!r}", blob=str)
        for name, meta in manifest["blobs"].items():
            where = f"{manifest_path}: blob {name!r}"
            _json_members(meta, where, dtype=str, shape=list, offset=int, length=int)
            if not all(type(d) is int and d >= 0 for d in meta["shape"]):
                raise CorruptBlob(f"{where}: 'shape' {meta['shape']!r} is not a list of sizes")
        raise


def _graph_of(manifest: dict, payload: bytes, manifest_path: Path) -> Graph:
    blobs = manifest["blobs"]

    def read_blob(name: str) -> np.ndarray:
        if name not in blobs:
            raise CorruptBlob(f"manifest references missing blob {name!r}")
        meta = blobs[name]
        if meta["dtype"] not in _DTYPE_CODES:
            raise CorruptBlob(f"blob {name!r} has unsupported dtype {meta['dtype']!r}")
        code, unit = _DTYPE_CODES[meta["dtype"]]
        expected = unit * math.prod(meta["shape"])  # math.prod: a tenth of np.prod's call cost
        if meta["length"] != expected:
            raise CorruptBlob(f"blob {name!r} length {meta['length']} != shape size {expected}")
        lo, hi = meta["offset"], meta["offset"] + meta["length"]
        if hi > len(payload) or lo < 0:
            raise CorruptBlob(f"blob {name!r} spans [{lo}, {hi}) beyond payload of {len(payload)} bytes")
        arr = np.frombuffer(payload[lo:hi], dtype=code).reshape(meta["shape"])
        if code == "<f4" and not np.isfinite(arr).all():
            raise NonFiniteValue(f"blob {name!r} holds NaN or infinite values")
        return np.ascontiguousarray(arr)

    kinds = [nj["kind"] for nj in manifest["nodes"]]
    if kinds.count("Input") != 1 or kinds.count("Output") != 1:
        raise InvalidAttribute(f"a model needs one Input and one Output node, {manifest_path.parent} has "
                               f"{kinds.count('Input')} and {kinds.count('Output')}")
    g = Graph(manifest.get("name", "model"))
    for nj in manifest["nodes"]:
        if nj["kind"] not in KINDS:
            raise InvalidAttribute(f"node {nj['id']!r} has unknown kind {nj['kind']!r}")
        if nj["id"] in g:
            raise InvalidAttribute(f"node id {nj['id']!r} appears twice")
        weights = {}
        for wname, ref in nj["weights"].items():
            arr = read_blob(ref["blob"])
            qp = _qparams_from_json(ref["qparams"], manifest_path) if "qparams" in ref else None
            if (qp is None) != (arr.dtype == np.float32):
                raise CorruptBlob(f"blob {ref['blob']!r} holds {arr.dtype} data "
                                  f"{'without' if qp is None else 'with'} qparams")
            weights[wname] = Tensor(arr, qp)
        node = Node(nj["id"], nj["kind"], list(nj["inputs"]),
                    {k: _attr_from_json(v, manifest_path) for k, v in nj["attrs"].items()},
                    weights, nj["precision"])
        _check_node(node)
        g.add(node)
    g.validate()
    for n in g.nodes:
        for src in n.inputs:
            if (made := _writes_codes(g.node(src))) != _reads_codes(n):
                raise InvalidAttribute(f"node {n.id!r} reads {src!r} as "
                                       f"{'float' if made else 'int8 codes'}, but {src!r} "
                                       f"writes {'int8 codes' if made else 'float'}")
    return g


def save_images(images: np.ndarray, path) -> None:
    """images.bin: u32 count, u32 C, u32 H, u32 W (LE), then f32 LE data."""
    images = np.ascontiguousarray(images, dtype=np.float32)
    if images.ndim != 4:
        raise EmptyImageBatch(f"expected (count, C, H, W), got shape {images.shape}")
    header = struct.pack("<4I", *images.shape)
    Path(path).write_bytes(header + images.astype("<f4").tobytes())


def load_images(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise CorruptBlob(f"image file {path} too short for header")
    count, c, h, w = struct.unpack("<4I", raw[:16])
    if count == 0:
        raise EmptyImageBatch(f"image file {path} holds no images")
    expected = 16 + 4 * count * c * h * w
    if len(raw) != expected:
        raise CorruptBlob(f"image file {path} has {len(raw)} bytes, header implies {expected}")
    images = np.frombuffer(raw[16:], dtype="<f4").reshape(count, c, h, w).copy()
    if not np.isfinite(images).all():
        raise NonFiniteValue(f"image file {path} holds NaN or infinite values")
    return images


def _read_json(path):
    """The JSON value in `path`; CorruptBlob, naming the file, when it holds none."""
    with open(path) as fh:  # takes a str or a Path without building another Path
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that are not text
            raise CorruptBlob(f"{path} holds no valid JSON: {exc}") from None


def _json_members(doc, where, **members: type) -> dict:
    """`doc`, a JSON object whose named members hold the given types (a type that admits
    None lets its member be missing); else CorruptBlob naming `where`."""
    if not isinstance(doc, dict):
        raise CorruptBlob(f"{where} holds a {type(doc).__name__}, not a JSON object")
    for m, kind in members.items():
        if not isinstance(doc.get(m), kind):
            found = f"holds a {type(doc[m]).__name__}" if m in doc else "is missing"
            raise CorruptBlob(f"{where}: {m!r} {found}, not a {getattr(kind, '__name__', kind)}")
    return doc


def read_json_object(path, **members: type) -> dict:
    """The JSON object in `path`, whose named members hold the given types (_json_members)."""
    return _json_members(_read_json(path), path, **members)


def save_labels(labels, path) -> None:
    Path(path).write_text(json.dumps([int(x) for x in labels]))


def load_labels(path) -> list[int]:
    """The JSON array of integers in `path`; CorruptBlob, naming the file, when
    it holds any other JSON value."""
    labels = _read_json(path)
    if not isinstance(labels, list) or not all(type(x) is int for x in labels):
        raise CorruptBlob(f"{path} holds no JSON array of integers")
    return labels
