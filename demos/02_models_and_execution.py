"""Synthetic models and the reference interpreter.

Models are generated from a pinned 64-bit LCG, so (arch, seed) fully
determines every weight bit. The executor runs the graph node by node in
a deterministic topological order. Its `observe` hook maps node ids to
callables, and each takes its layer's output as the step makes it.
"""

import numpy as np

import mixquant as mq

graph = mq.gen_synthetic("mininet", seed=42)
print(f"{graph.name}: {len(graph.nodes)} nodes")
for nid in mq.topo_sort(graph)[:8]:
    n = graph.node(nid)
    print(f"  {n.id:10s} {n.kind:12s} <- {n.inputs}")
print("  ...")

image = mq.gen_images(1, (3, 16, 16), seed=123)
ex = mq.Executor()
shapes = {}
observe = {nid: (lambda t, nid=nid: shapes.__setitem__(nid, t.shape))
           for nid in ("b1_conv", "b4_add", "b5_conv", "gap", "fc")}
out = ex.run_fp32(graph, mq.Tensor.f32(image), observe=observe)
print("\nclass probabilities:", np.round(out.data, 4))
print("executor pass counter:", ex.passes)

print("\nobserved activation shapes:")
for nid, shape in shapes.items():
    print(f"  {nid:10s} {shape}")

# serialization round-trips bit-exactly
import tempfile
with tempfile.TemporaryDirectory() as d:
    mq.save_model(graph, d)
    again = mq.load_model(d)
    out2 = mq.Executor().run_fp32(again, mq.Tensor.f32(image))
    print("\nsave/load output identical:", bool(np.array_equal(out.data, out2.data)))
