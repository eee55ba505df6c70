#!/usr/bin/env python3
"""Walkthrough of frequency-wise feature-statistics mixing.

Builds a small two-domain batch whose domains have visibly different
per-frequency statistics, applies the mixing augmentation, and shows that
the output statistics are the expected convex combinations of the own and
reference statistics.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from sedtk import (
    DomainTag,
    FeatureMap,
    MixStyleConfig,
    RandomSource,
    freq_mixstyle,
    freq_stats,
    make_batch,
    make_reference_batch,
)

rng = np.random.default_rng(0)

# Two DESED-like items (bright: energy rises with frequency) and two
# MAESTRO-like items (dark: energy falls with frequency).
F, T = 8, 32
slope = np.linspace(-1.0, 1.0, F)[None, :, None]
maps = []
for k in range(4):
    base = slope if k < 2 else -slope
    maps.append(FeatureMap((base + 0.3 * rng.normal(size=(1, F, T))).astype(np.float32)))
batch = make_batch(maps, [DomainTag.DESED] * 2 + [DomainTag.MAESTRO] * 2)

print("per-item mean of frequency-wise mu (bright vs dark):")
for i, m in enumerate(batch.maps):
    st = freq_stats(m)
    print(f"  item {i} ({batch.tags[i].name:7s}): "
          f"low bins {st.mu[:2].mean():+.2f}  high bins {st.mu[-2:].mean():+.2f}")

print("\nreference order = swap the domain blocks, then shuffle:")
order = make_reference_batch(batch, RandomSource(1), permutation=range(4))
print("  order with identity shuffle:", order.tolist())
print("  reference tags:", [batch.tags[i].name for i in order])

cfg = MixStyleConfig(p=1.0, alpha=0.6)
lam = np.array([0.9, 0.5, 0.5, 0.1])
out = freq_mixstyle(batch, cfg, RandomSource(2), lam=lam, permutation=range(4))

print("\nmixing with pinned weights", lam.tolist())
print("output per-bin mean vs predicted lam*own + (1-lam)*reference:")
for i in range(4):
    own = freq_stats(batch.maps[i])
    other = freq_stats(batch.maps[order[i]])
    predicted = lam[i] * own.mu + (1 - lam[i]) * other.mu
    got = freq_stats(out.maps[i]).mu
    print(f"  item {i}: max |got - predicted| = {np.abs(got - predicted).max():.2e}")

print("\nwith the gate probability p=0 the batch passes through untouched:")
untouched = freq_mixstyle(batch, MixStyleConfig(p=0.0), RandomSource(3))
print("  same object returned:", untouched is batch)
