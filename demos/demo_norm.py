#!/usr/bin/env python3
"""Frequency instance normalization and the adaptive residual blend.

Shows the whitening effect of per-bin normalization, the two endpoints of
the trainable blend (pure identity, pure normalization), and a gradient
check of the hand-written backward pass against finite differences.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from sedtk import AdaResNormParams, FeatureMap, ada_res_norm, ada_res_norm_grad, freq_in

rng = np.random.default_rng(0)

# A feature map whose bins have wildly different scales.
scales = np.array([0.1, 1.0, 5.0, 20.0])[None, :, None]
fmap = FeatureMap((scales * rng.normal(size=(2, 4, 64)) + scales).astype(np.float32))

print("per-bin std before and after normalization:")
before = fmap.data.astype(np.float64).std(axis=(0, 2))
after = freq_in(fmap).data.astype(np.float64).std(axis=(0, 2))
for f in range(4):
    print(f"  bin {f}: {before[f]:8.3f} -> {after[f]:.6f}")

print("\nblend endpoints:")
identity = ada_res_norm(fmap, AdaResNormParams(a=1.0, b=1.0, c=0.0))
print("  a=1, b=1, c=0 reproduces the input exactly:",
      np.array_equal(identity.data, fmap.data))
pure = ada_res_norm(fmap, AdaResNormParams(a=0.0, b=1.0, c=0.0))
print("  a=0, b=1, c=0 reproduces freq_in exactly:  ",
      np.array_equal(pure.data, freq_in(fmap, 1e-5).data))

params = AdaResNormParams(a=0.5, b=1.0, c=0.0)
print(f"\nneutral start: a={params.a}, b={params.b}, c={params.c}")

upstream = rng.normal(size=fmap.shape)
grads = ada_res_norm_grad(fmap, params, upstream)
print("gradients of sum(upstream * out):")
print(f"  d_a={grads.d_a:+.4f}  d_b={grads.d_b:+.4f}  d_c={grads.d_c:+.4f}")


def loss(x64, a):
    mu = x64.mean(axis=(0, 2), keepdims=True)
    s = np.sqrt(x64.var(axis=(0, 2), keepdims=True) + params.eps)
    y = (x64 - mu) / s
    return float((upstream * ((a * x64 + (1 - a) * y) * params.b + params.c)).sum())


h = 1e-3
x64 = fmap.data.astype(np.float64)
fd = (loss(x64, params.a + h) - loss(x64, params.a - h)) / (2 * h)
print(f"  central-difference d_a = {fd:+.4f} "
      f"(relative error {abs(fd - grads.d_a) / abs(fd):.2e})")
