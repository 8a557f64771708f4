"""Calibration: profiling activation ranges and deriving quantization
parameters from them.

One FP32 pass per calibration image feeds one exact range record per node
(min, max and element count); min/max then becomes an asymmetric affine
step/zero-point.
"""

import numpy as np

import mixquant as mq
from mixquant.calibration import RangeProfile, activation_qparams

graph = mq.gen_synthetic("mininet", seed=42)
images = mq.gen_images(32, (3, 16, 16), seed=7)
ex = mq.Executor()
calib = mq.profile_activations(graph, images, executor=ex)
print(f"profiled {calib.image_count} images, {len(calib.profiles)} tensors, "
      f"{ex.passes} executor passes")

print("\nper-node activation ranges:")
for nid in ("input", "b1_conv", "b1_relu", "b4_add", "fc", "softmax"):
    r = calib.for_node(nid)
    qp = activation_qparams(r)
    print(f"  {nid:10s} [{r.min:+8.3f}, {r.max:+8.3f}]  step={qp.step:.5f} zp={qp.zero_point:+4d}")

# ReLU outputs are nonnegative, so their ranges start at 0
assert calib.for_node("b1_relu").min >= 0.0

# a range does not depend on how the values are split into updates
whole, parts = RangeProfile(), RangeProfile()
whole.update(images)
for img in images[::-1]:
    parts.update(img)
print("\nsplit updates give the same range:",
      (whole.min, whole.max, whole.total) == (parts.min, parts.max, parts.total))
assert whole.total == images.size and whole.min == float(np.min(images))
