#!/usr/bin/env python3
"""End-to-end batch pipeline through the command-line entry points.

Synthesizes a few WAV clips, then drives the same code paths the `sedtk`
executable exposes: feature extraction, statistics export, augmentation,
change-point post-processing, and evaluation. Everything lands in a
scratch directory, listed at the end and then removed.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from sedtk import AudioClip, Event, ScoreTrack, read_fmt
from sedtk.cli import run
from sedtk.dataio import write_durations, write_events, write_scores
from sedtk.frontend import write_wav

with tempfile.TemporaryDirectory(prefix="sedtk_demo_") as tmp:
    work = Path(tmp)
    wav_dir = work / "wavs"
    wav_dir.mkdir()

    rng = np.random.default_rng(42)
    sr = 16000
    for i, freq in enumerate((440, 880, 1760)):
        t = np.arange(sr) / sr
        wave = (0.4 * np.sin(2 * np.pi * freq * t) + 0.05 * rng.normal(size=sr)).astype(np.float32)
        write_wav(wav_dir / f"clip{i}.wav", AudioClip(wave, sr), "pcm16")

    feats = work / "feats.fmt"
    assert run(["features", "--in", str(wav_dir), "--out", str(feats),
                "--n-mels", "32", "--pad-seconds", "1"]) == 0

    stats_csv = work / "stats.csv"
    assert run(["stats", "--in", str(feats), "--out", str(stats_csv),
                "--which", "frequency"]) == 0

    aug = work / "aug.fmt"
    assert run(["augment", "--in", str(feats), "--out", str(aug),
                "--p", "1.0", "--alpha", "0.6", "--seed", "7"]) == 0

    # Fake frame posteriors derived from the augmented features.
    batch = read_fmt(aug)
    tracks = []
    for i, fmap in enumerate(batch.maps):
        energy = fmap.data[0].mean(axis=0)
        hot = 1.0 / (1.0 + np.exp(-(energy - energy.mean())))
        tracks.append(ScoreTrack(
            scores=np.stack([hot, 1.0 - hot]),
            hop_seconds=256 / sr,
            class_names=("hot", "cold"),
            clip_id=f"clip{i}",
        ))
    scores_csv = work / "scores.csv"
    write_scores(tracks, scores_csv)

    events_tsv = work / "events.tsv"
    assert run(["postprocess", "--scores", str(scores_csv), "--out", str(events_tsv),
                "--filter-len", "5", "--threshold", "0.4"]) == 0

    truth_tsv = work / "truth.tsv"
    durs_tsv = work / "durs.tsv"
    write_events([Event(f"clip{i}", "hot", 0.1, 0.6) for i in range(3)], truth_tsv)
    write_durations({f"clip{i}": 1.0 for i in range(3)}, durs_tsv)

    print("\n--- evaluation report ---")
    assert run(["evaluate", "--events", str(events_tsv), "--truth", str(truth_tsv),
                "--durations", str(durs_tsv), "--psds"]) == 0

    # Segment level: the one-second maximum of each clip's frame posteriors
    # against hard labels on the same grid (clips 0 and 1 hot, clip 2 cold).
    seg_scores_csv = work / "seg_scores.csv"
    seg_truth_csv = work / "seg_truth.csv"
    write_scores([
        ScoreTrack(scores=tr.scores.max(axis=1, keepdims=True), hop_seconds=1.0,
                   class_names=tr.class_names, clip_id=tr.clip_id)
        for tr in tracks
    ], seg_scores_csv)
    write_scores([
        ScoreTrack(scores=np.array([[hot], [1.0 - hot]]), hop_seconds=1.0,
                   class_names=("hot", "cold"), clip_id=f"clip{i}")
        for i, hot in enumerate((1.0, 1.0, 0.0))
    ], seg_truth_csv)
    assert run(["evaluate", "--segscores", str(seg_scores_csv), "--segtruth", str(seg_truth_csv),
                "--mpauc"]) == 0

    print("\nartifacts (removed on exit) under", work)
    for p in sorted(work.rglob("*")):
        if p.is_file():
            print(f"  {p.relative_to(work)}  ({p.stat().st_size} bytes)")
