"""Sensitivity analysis in two inference passes per image.

The analyzer runs the FP32 and the fully-int8 model once per calibration
image, derives per-layer weight/activation SQNR, their deltas, and MSE, and
ranks layers most-sensitive-first (rank mixup of the two delta signals, with
large-MSE layers pulled to the front). Baseline orderings are included for
comparison.
"""

import mixquant as mq
from mixquant.model_io import scale_node_weights

# make one layer genuinely fragile: a sparse x50 scaling inflates its
# quantization step while leaving most weights small
graph = scale_node_weights(mq.gen_synthetic("mininet", 42), "b6_conv", 50.0, stride=64)
images = mq.gen_images(32, (3, 16, 16), seed=7)
calib = mq.profile_activations(graph, images)

ex = mq.Executor()
sens, samples = mq.generate_sensitivity_list(graph, calib, images, executor=ex)
print(f"analysis cost: {ex.passes} passes for {images.shape[0]} images "
      f"(2 per image, independent of layer count)")

print("\nper-layer metrics (weight SQNR / act SQNR / act MSE / deltas):")
print(f"{'layer':12s} {'w_sqnr':>8s} {'a_sqnr':>8s} {'a_mse':>10s} {'w_delta':>8s} {'a_delta':>8s}")
for s in samples:
    print(f"{s.node_id:12s} {s.weight_sqnr:8.2f} {s.act_sqnr:8.2f} {s.act_mse:10.2e} "
          f"{s.weight_delta:8.2f} {s.act_delta:8.2f}")

print("\nsensitivity list (most sensitive first):")
print(" ", " > ".join(sens.ids[:8]), "...")
print("pathological layer position:", sens.ids.index("b6_conv"))

for method in ("in_order", "weight_sqnr"):
    baseline = mq.baseline_order(graph, method)
    print(f"{method:12s} head:", baseline.ids[:4])

labels = mq.reference_pass(graph, images).preds
top1 = mq.baseline_order(graph, "top1", images=images, labels=labels, calib=calib, top1_budget=8)
print(f"{'top1':12s} head:", top1.ids[:4], "(costs one sweep per layer)")
