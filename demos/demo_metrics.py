#!/usr/bin/env python3
"""Event-level PSDS and segment-level macro partial AUC on toy data.

Enumerates a tiny two-class detection problem across a threshold sweep,
prints the resulting operating-point staircase and its normalized area,
then scores a segment-level ranking problem and combines the two numbers.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from sedtk import (
    AnnotationSet,
    Event,
    PsdsConfig,
    joint_score,
    mpauc_report,
    partial_roc_auc,
    psd_roc,
    psds,
)

truth = AnnotationSet(
    events=[
        Event("a", "dog", 0.0, 10.0),
        Event("a", "dog", 20.0, 30.0),
        Event("a", "cat", 40.0, 50.0),
        Event("a", "cat", 60.0, 70.0),
    ],
    clip_durations={"a": 3600.0},
)

detections = [
    (0.9, Event("a", "dog", 0.0, 10.0)),     # correct
    (0.6, Event("a", "dog", 20.0, 30.0)),    # correct
    (0.55, Event("a", "dog", 100.0, 110.0)), # spurious
    (0.7, Event("a", "cat", 40.0, 50.0)),    # correct
    (0.3, Event("a", "cat", 200.0, 210.0)),  # spurious
]

cfg = PsdsConfig(thresholds=(0.2, 0.5, 0.8))
curve = psd_roc(lambda tau: [e for c, e in detections if c >= tau], truth, cfg)
print("operating-point staircase (false positives per hour, effective TPR):")
for efpr, etpr in curve:
    print(f"  ({efpr:5.1f}, {etpr:.3f})")
psds_value = psds(curve, cfg)
print(f"normalized area up to {cfg.e_max:.0f} FP/h: psds = {psds_value:.3f}")

# Segment side: 120 one-second cells of two classes, aligned (cells, classes)
# arrays, with a decent but imperfect ranking.
classes = ["dog", "cat"]
rng = np.random.default_rng(1)
labels = rng.uniform(size=(120, len(classes))) < 0.3
noise = rng.normal(scale=0.25, size=labels.shape)
scores = np.clip(0.35 + 0.4 * labels + noise, 0, 1)

mpauc_value = mpauc_report(scores, labels, classes)["mpauc"]
print(f"\nsegment-level macro partial AUC (FPR cap 0.1): {mpauc_value:.3f}")
print(f"  dog alone: {partial_roc_auc(labels[:, 0], scores[:, 0]):.3f} "
      "(0.5 = chance, 1.0 = perfect ranking)")

print(f"\njoint score = {joint_score(psds_value, mpauc_value):.3f}")
