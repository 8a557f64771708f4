"""Operator fusion: BatchNorm folding, ReLU scale substitution, and the
fusion groups that drive mixed-precision assignment.

Folding BN rewrites conv weights to W * gamma / sqrt(var + eps); fusing ReLU
replaces the conv's output scale with the post-activation scale and turns the
activation into a clamp inside the conv's requantize.
"""

import numpy as np

import mixquant as mq
from mixquant.fusion import discover_fusion_groups, lower_to_stage

graph = mq.gen_synthetic("mininet", seed=42)
fused = lower_to_stage(graph, "fused")
print(f"unfused: {len(graph.nodes)} nodes -> fused: {len(fused.nodes)} nodes")
print("fused node kinds:", sorted({n.kind for n in fused.nodes}))

# FP32 semantics are preserved to float-reassociation tolerance
image = mq.gen_images(1, (3, 16, 16), seed=5)
ex = mq.Executor()
a = ex.run_fp32(graph, mq.Tensor.f32(image))
c = ex.run_fp32(fused, mq.Tensor.f32(image))
rel = np.abs(a.data - c.data).max() / np.abs(a.data).max()
print(f"stage-A vs stage-C relative error: {rel:.2e}")

print("\nfusion groups (anchor: members):")
for g in discover_fusion_groups(graph):
    print(f"  {g.anchor:10s}: {', '.join(g.members)}")

# the int8 payoff: quantizing once at the ReLU scale beats quantize+requantize
images = mq.gen_images(100, (3, 16, 16), seed=11)
calib = mq.profile_activations(graph, images)
two_step = mq.apply_mixed_precision(graph, [], calib)
one_step = mq.apply_mixed_precision(fused, [], calib)
print(f"\nQ-DQ count unfused application: {mq.count_qdq(two_step)}, "
      f"fused application: {mq.count_qdq(one_step)}")
err_two = err_one = 0.0
for i in range(20):
    x = mq.Tensor.f32(images[i:i + 1])
    ref = ex.run_fp32(graph, x)
    err_two += mq.mse(ref, ex.run_quantized(two_step, x))
    err_one += mq.mse(ref, ex.run_quantized(one_step, x))
print(f"mean output MSE unfused {err_two / 20:.3e} vs fused {err_one / 20:.3e}")
