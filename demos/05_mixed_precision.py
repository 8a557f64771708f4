"""Mixed-precision application: converting a graph to int8 except for a
dequantized node list, with Quantize/Dequantize adapters at every boundary.

The transform keeps listed fusion groups at 32 bits and makes one forward
pass over the rest: it attaches calibrated scales to every int8 node and puts
one adapter on each value that crosses a precision boundary, so the graph it
writes has no redundant adapter pair to clean up.
"""

import numpy as np

import mixquant as mq
from mixquant.quantizer import expand_to_groups

graph = mq.gen_synthetic("mininet", seed=42)
images = mq.gen_images(32, (3, 16, 16), seed=7)
calib = mq.profile_activations(graph, images)

for keep in ([], ["b3_conv"], ["b3_conv", "b6_conv"]):
    qg = mq.apply_mixed_precision(graph, expand_to_groups(graph, keep), calib)
    int8 = sum(1 for n in qg.nodes if n.precision == 8)
    print(f"keep {keep or 'nothing'}: {int8} int8 nodes, {mq.count_qdq(qg)} Q-DQ adapters")

qg = mq.apply_mixed_precision(graph, [], calib)
print("\nfully-int8 graph boundaries:")
for n in qg.nodes:
    if n.kind in ("Quantize", "Dequantize"):
        consumers = [c.id for c in qg.nodes if n.id in c.inputs]
        print(f"  {n.kind:10s} {n.id:14s} {n.inputs} -> {consumers}")

ex = mq.Executor()
x = mq.Tensor.f32(images[0:1])
ref = ex.run_fp32(graph, x)
got = ex.run_quantized(qg, x)
print("\nfp32 probabilities :", np.round(ref.data, 4))
print("int8 probabilities :", np.round(got.data, 4))
ref_logits = mq.reference_pass(graph, images[:8]).logits
print("final-logit SQNR   : %.1f dB"
      % mq.mean_logit_sqnr(ref_logits, mq.reference_pass(qg, images[:8]).logits))

# precision config file, as emitted next to every quantized model
config = mq.precision_config(qg)
print("\nprecision config (first 5):", dict(list(config.items())[:5]))
