"""Accuracy-vs-compression sweep: the recovery-curve experiment.

Sweeps the normalized BOPs reduction target and compares ordering methods on
a model with one deliberately fragile layer. The better the sensitivity list,
the more accuracy survives at every compression level. Writes
recovery_curve.csv into the working directory.
"""

import csv
from pathlib import Path

import mixquant as mq
from mixquant.bops import bops
from mixquant.fusion import lower_to_stage
from mixquant.model_io import scale_node_weights
from mixquant.quantizer import precision_config, select_dequant_set
from mixquant.sensitivity import top1_accuracy

graph = scale_node_weights(mq.gen_synthetic("mininet", 42), "fc", 50.0, stride=64)
calib_images = mq.gen_images(32, (3, 16, 16), seed=7)
eval_images = mq.gen_images(128, (3, 16, 16), seed=9)
calib = mq.profile_activations(graph, calib_images)
labels = mq.reference_pass(graph, eval_images).preds

ours, _ = mq.generate_sensitivity_list(graph, calib, calib_images)
orders = {
    "in_order": mq.baseline_order(graph, "in_order"),
    "weight_sqnr": mq.baseline_order(graph, "weight_sqnr"),
    "delta_mixup": ours,
}

staged = lower_to_stage(graph, "fused")
targets = [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]
rows = []
print(f"{'method':12s} " + " ".join(f"@{t:>3.0f}%" for t in targets))
for name, sens in orders.items():
    accs = []
    for target in targets:
        keep = select_dequant_set(sens, staged, target)
        qg = mq.apply_mixed_precision(staged, keep, calib)
        acc = top1_accuracy(mq.reference_pass(qg, eval_images).preds, labels)
        reached = bops(qg, precision_config(qg)).normalized_reduction_pct
        accs.append(acc)
        rows.append({"method": name, "target_pct": target,
                     "normalized_reduction_pct": round(reached, 2),
                     "accuracy": acc, "qdq_count": mq.count_qdq(qg)})
    print(f"{name:12s} " + " ".join(f"{a:5.3f}" for a in accs))

out = Path("recovery_curve.csv")
with out.open("w", newline="") as fh:
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
print(f"\nwrote {out}")
