#!/usr/bin/env python3
"""From waveform to log-mel features to exportable statistic vectors.

Generates tones at different frequencies, extracts log-mel feature maps,
and shows which mel bin each tone lands in, then exports the per-instance
frequency statistics a 2-D embedding tool would consume.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from sedtk import AudioClip, DomainTag, MelConfig, log_mel, make_batch
from sedtk.frontend import mel_center_frequencies
from sedtk.stats import export_stats

sr = 16000
cfg = MelConfig(n_mels=64, pad_to_seconds=2.0)
centers = mel_center_frequencies(cfg)

maps = []
for freq in (250.0, 1000.0, 4000.0):
    t = np.arange(2 * sr) / sr
    clip = AudioClip(np.sin(2 * np.pi * freq * t).astype(np.float32), sr)
    fmap = log_mel(clip, cfg)
    profile = fmap.data[0].mean(axis=1)
    peak = int(np.argmax(profile))
    print(f"{freq:6.0f} Hz tone -> mel bin {peak:2d} "
          f"(center {centers[peak]:7.1f} Hz), feature shape {fmap.shape}")
    maps.append(fmap)

batch = make_batch(maps, [DomainTag.DESED, DomainTag.DESED, DomainTag.MAESTRO])
with tempfile.TemporaryDirectory(prefix="sedtk_demo_") as tmp:
    out = Path(tmp) / "freq_stats.csv"
    rows = export_stats(batch, "frequency", out)
    print(f"\nexported {rows} statistic rows (tag + mu_1..mu_F + sigma_1..sigma_F)")
    print("first row, first 6 fields:", ",".join(out.read_text().splitlines()[0].split(",")[:6]))
