"""Quantize/dequantize basics: affine parameters, rounding, saturation.

An int8 tensor stores q = clamp(round(x / step) + zero_point); dequantizing
gives back (q - zero_point) * step, within half a step of the original for
any in-range value.
"""

import numpy as np

import mixquant as mq
from mixquant.ir import QuantParams

# symmetric weight-style parameters: step chosen so max|W| lands on 127
w = np.array([-1.0, 0.5, 1.0], dtype=np.float32)
wqp = mq.weight_qparams(w)
print("weights:", w)
print("weight step = max|W|/127 =", wqp.step)
q = mq.quantize_affine(w, wqp)
print("quantized codes:", q.data, "-> dequantized:", mq.dequantize(q).data)

# asymmetric activation-style parameters over an arbitrary range
qp = QuantParams(step=0.02, zero_point=-5)
x = np.linspace(-2.4, 2.6, 11).astype(np.float32)
back = mq.dequantize(mq.quantize_affine(x, qp)).data
print("\nactivation range [-2.46, 2.64]:")
for a, b in zip(x, back):
    print(f"  {a:+.3f} -> {b:+.3f}  (err {abs(a - b):.4f}, bound {qp.step / 2:.4f})")

# zero is always exactly representable
zero = mq.dequantize(mq.quantize_affine(np.zeros(1, np.float32), qp)).data[0]
print("\nround-trip of 0.0:", zero)

# out-of-range values saturate instead of wrapping
hot = mq.quantize_affine(np.array([100.0], np.float32), wqp)
print("quantize(100.0) with unit-ish step:", hot.data[0], "(saturated at +127)")
