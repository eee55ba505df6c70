"""Seeded input generator for the sedtk benchmark.

    python3 perfbench/gen.py --workload tune --seed 0 --size full --out DIR

Writes every input file of one workload into DIR, plus a tiny copy of the
same kind under DIR/warmup for the untimed warm-up round, and a
``plan.json`` naming the files and the per-call seeds. The same seed gives
the same bytes. The generator writes its own WAV, .fmt, CSV and TSV files
from the documented formats, so a change to sedtk's writers cannot change
the benchmark's inputs. It imports numpy only, never sedtk.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("feature-path", "tune", "score")

# Round sizes. "full" is the benchmark; "tiny" serves the self-test and the
# warm-up round.
SIZES = {
    "full": {
        "desed_clips": 40, "maestro_clips": 24, "mix_items": 16,
        "cli_reps": 1, "train_steps": 2,
        "val_clips": 64, "test_clips": 300,
    },
    "tiny": {
        "desed_clips": 3, "maestro_clips": 2, "mix_items": 4,
        "cli_reps": 1, "train_steps": 1,
        "val_clips": 8, "test_clips": 10,
    },
}

CLASSES = (
    "Alarm_bell_ringing", "Blender", "Cat", "Dishes", "Dog",
    "Electric_shaver_toothbrush", "Frying", "Running_water", "Speech",
    "Vacuum_cleaner",
)
HOP_S = 0.016
N_FRAMES = 626          # 10 s of 16 kHz audio at hop 256, centred frames
N_MELS = 128
N_SEGMENTS = 10         # 1 s segments of a 10 s clip
CLIP_S = 10.0

# (encoding, sample rate, channels): the formats the front end must decode.
WAV_FORMATS = (
    ("float32", 16000, 1),
    ("pcm16", 44100, 2),
    ("pcm24", 48000, 1),
    ("pcm32", 22050, 1),
)

# The tuning grid: filter_len and boundary_threshold change the boxes; the
# merge axis reuses the same candidate detection.
TUNE_GRID = {
    "filter_len": (11, 21),
    "boundary_threshold": (0.1, 0.2),
    "merge_threshold_abs": (0.15, 0.3),
}
SCORE_CONFIG = {
    "filter_len": 21, "boundary": 0.1, "merge_abs": 0.15, "merge_rel": 1.5,
    "threshold": 0.6,
}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, *stream])


# --- WAV and .fmt writers (independent of sedtk) ---

def write_wav(path: Path, samples: np.ndarray, rate: int, encoding: str) -> None:
    """RIFF/WAVE writer: float32 or little-endian PCM 16/24/32."""
    n_channels = 1 if samples.ndim == 1 else samples.shape[1]
    flat = np.clip(samples.reshape(-1), -1.0, 1.0 - 2.0**-23)
    if encoding == "float32":
        tag, bits, payload = 3, 32, flat.astype("<f4").tobytes()
    elif encoding == "pcm16":
        tag, bits = 1, 16
        payload = np.round(flat * 32767.0).astype("<i2").tobytes()
    elif encoding == "pcm32":
        tag, bits = 1, 32
        payload = np.round(flat * 2147483647.0).astype("<i4").tobytes()
    elif encoding == "pcm24":
        tag, bits = 1, 24
        vals = np.round(flat * 8388607.0).astype("<i4")
        payload = vals.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    block = n_channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, n_channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        body += b"\x00"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def write_fmt(path: Path, data: np.ndarray, tags) -> None:
    """FMT1 tensor file: magic, u32 N,C,F,T, float32 payload, tag bytes."""
    n, c, f, t = data.shape
    with open(path, "wb") as fh:
        fh.write(b"FMT1" + struct.pack("<4I", n, c, f, t))
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())
        fh.write(bytes(tags))


# --- feature-path inputs ---

def _clip_audio(rng: np.random.Generator, rate: int, channels: int,
                seconds: float, maestro: bool) -> np.ndarray:
    """Noise floor plus tonal, chirped and broadband events."""
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    floor = 0.003 if maestro else 0.01
    x = floor * rng.standard_normal(n)
    if maestro:  # duller, lower-level recordings
        x = np.convolve(x, np.ones(8) / 8.0, mode="same")
    for _ in range(int(rng.integers(3, 7))):
        on = rng.uniform(0.0, max(seconds - 0.5, 0.1))
        dur = rng.uniform(0.3, 2.5)
        env = ((t >= on) & (t < on + dur)).astype(np.float64)
        env *= np.sin(np.pi * np.clip((t - on) / dur, 0.0, 1.0)) ** 2
        f0 = rng.uniform(150.0, 3000.0 if maestro else 6000.0)
        kind = int(rng.integers(3))
        if kind == 0:
            sig = np.sin(2 * np.pi * f0 * t) + 0.3 * np.sin(4 * np.pi * f0 * t)
        elif kind == 1:
            sig = np.sin(2 * np.pi * (f0 * t + rng.uniform(50.0, 400.0) * t * t))
        else:
            sig = rng.standard_normal(n)
        x += rng.uniform(0.05, 0.3) * env * sig
    x *= 0.9 / max(1.0, float(np.abs(x).max()) / 0.9)
    if channels == 1:
        return x
    right = 0.8 * x + 0.002 * rng.standard_normal(n)
    return np.stack([x, right], axis=1)


def _wav_dir(out: Path, rng_seed: int, stream: int, n_clips: int, maestro: bool) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for i in range(n_clips):
        rng = _rng(rng_seed, stream, i)
        enc, rate, channels = WAV_FORMATS[i % len(WAV_FORMATS)]
        seconds = CLIP_S if i % 5 != 4 else float(rng.uniform(4.0, 9.0))
        audio = _clip_audio(rng, rate, channels, seconds, maestro)
        write_wav(out / f"clip_{i:04d}.wav", audio, rate, enc)


def gen_feature_path(out: Path, seed: int, size: dict) -> dict:
    n_d, n_m = size["desed_clips"], size["maestro_clips"]
    _wav_dir(out / "desed", seed, 1, n_d, maestro=False)
    _wav_dir(out / "maestro", seed, 2, n_m, maestro=True)
    rng = _rng(seed, 3)
    # A log-mel-like batch for the byte-identity check of `augment`.
    k = size["mix_items"]
    mu = rng.uniform(-12.0, 0.0, size=(k, 1, N_MELS, 1))
    sd = rng.uniform(0.5, 3.0, size=(k, 1, N_MELS, 1))
    mix = mu + sd * rng.standard_normal((k, 1, N_MELS, N_FRAMES))
    write_fmt(out / "mix_input.fmt", mix, [0] * (k // 2) + [1] * (k - k // 2))
    # Upstream cotangents for the normalization gradient, one per item.
    upstream = rng.standard_normal((n_d + n_m, 1, N_MELS, N_FRAMES)).astype(np.float32)
    np.save(out / "upstream.npy", upstream)
    return {
        "desed_dir": "desed", "maestro_dir": "maestro",
        "desed_clips": n_d, "maestro_clips": n_m,
        "mix_input": "mix_input.fmt", "mix_items": k, "upstream": "upstream.npy",
        "augment_seeds": [int(s) for s in rng.integers(0, 2**31, size["cli_reps"])],
        "mix_check_seed": int(rng.integers(0, 2**31)),
        "train_seeds": [int(s) for s in rng.integers(0, 2**31, size["train_steps"])],
        "norm_params": {"a": 0.5, "b": 1.0, "c": 0.0},
        "n_mels": N_MELS, "n_frames": N_FRAMES,
    }


# --- score-file inputs (tune and score) ---

def _smooth(x: np.ndarray, width: int) -> np.ndarray:
    kernel = np.hanning(width + 2)[1:-1]
    return np.convolve(x, kernel / kernel.sum(), mode="same")


def _bump(t: np.ndarray, on: float, off: float, amp: float, edge: float) -> np.ndarray:
    rise = 1.0 / (1.0 + np.exp(-(t - on) / edge))
    fall = 1.0 / (1.0 + np.exp(-(off - t) / edge))
    return amp * rise * fall


def make_score_set(seed: int, stream: int, n_clips: int, prefix: str):
    """Frame posteriors, truth events and segment files for n_clips clips.

    Every clip has one truth event per class. The detector's response to
    it varies in strength and timing; each clip also carries false-alarm
    bumps and a slowly varying background, so candidate counts, merges and
    misses all occur and PSDS stays well inside (0, 1).
    """
    rng = _rng(seed, stream)
    t = np.arange(N_FRAMES) * HOP_S
    n_cls = len(CLASSES)
    scores = np.empty((n_clips, n_cls, N_FRAMES))
    truth = []
    for i in range(n_clips):
        clip = f"{prefix}_{i:04d}"
        for k, cls in enumerate(CLASSES):
            dur = rng.uniform(0.4, 4.0)
            on = round(rng.uniform(0.0, CLIP_S - dur), 3)
            off = round(on + dur, 3)
            truth.append((clip, on, off, cls))
            row = 0.08 + 0.07 * _smooth(rng.standard_normal(N_FRAMES), 40) * 3.0
            amp = rng.uniform(0.35, 0.95)
            d_on, d_off = rng.normal(0.0, 0.06), rng.normal(0.0, 0.1)
            resp = _bump(t, on + d_on, off + d_off, amp, rng.uniform(0.02, 0.1))
            if off - on > 1.5 and rng.random() < 0.4:  # a dip inside the event
                mid = rng.uniform(on + 0.4, off - 0.4)
                resp *= 1.0 - _bump(t, mid - 0.15, mid + 0.15, rng.uniform(0.3, 0.8), 0.03)
            row = np.maximum(row, resp)
            scores[i, k] = row
        for _ in range(3):  # false alarms on random classes
            k = int(rng.integers(n_cls))
            on = rng.uniform(0.0, CLIP_S - 0.3)
            dur = rng.uniform(0.2, 1.5)
            fa = _bump(t, on, on + dur, rng.uniform(0.15, 0.6), rng.uniform(0.02, 0.08))
            scores[i, k] = np.maximum(scores[i, k], fa)
    scores += 0.015 * rng.standard_normal(scores.shape)
    scores = np.round(np.clip(scores, 0.0, 1.0), 6)
    return scores, truth


def write_scores_csv(path: Path, clip_ids, scores: np.ndarray, hop: float) -> None:
    row_fmt = ",".join(["%.6f"] * scores.shape[1])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# hop_seconds={hop:.9g}\n")
        fh.write("clip_id,frame," + ",".join(CLASSES) + "\n")
        for clip, mat in zip(clip_ids, scores):
            fh.write("".join(
                f"{clip},{j}," + row_fmt % tuple(col) + "\n"
                for j, col in enumerate(mat.T.tolist())
            ))


def write_truth(path: Path, truth) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("filename\tonset\toffset\tevent_label\n")
        for clip, on, off, cls in truth:
            fh.write(f"{clip}\t{on:.3f}\t{off:.3f}\t{cls}\n")


def write_durations(path: Path, clip_ids) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for clip in clip_ids:
            fh.write(f"{clip}\t{N_FRAMES * HOP_S:.6f}\n")


def segment_files(scores: np.ndarray, truth, clip_ids):
    """1 s segment scores (max over frames) and soft labels (overlap share)."""
    seg_of_frame = np.minimum((np.arange(N_FRAMES) * HOP_S).astype(int), N_SEGMENTS - 1)
    seg_scores = np.stack(
        [scores[:, :, seg_of_frame == s].max(axis=2) for s in range(N_SEGMENTS)], axis=2
    )
    index = {clip: i for i, clip in enumerate(clip_ids)}
    cls_index = {c: k for k, c in enumerate(CLASSES)}
    soft = np.zeros_like(seg_scores)
    lo = np.arange(N_SEGMENTS, dtype=np.float64)
    for clip, on, off, cls in truth:
        share = np.clip(np.minimum(off, lo + 1.0) - np.maximum(on, lo), 0.0, 1.0)
        soft[index[clip], cls_index[cls]] = np.maximum(soft[index[clip], cls_index[cls]], share)
    soft = np.round(soft, 6)
    hard = soft >= 0.5
    for k, cls in enumerate(CLASSES):
        if hard[:, k].all() or not hard[:, k].any():
            raise RuntimeError(f"class {cls} lacks positive or negative segments")
    return seg_scores, soft


def _score_set_files(out: Path, seed: int, stream: int, n_clips: int, prefix: str):
    clip_ids = [f"{prefix}_{i:04d}" for i in range(n_clips)]
    scores, truth = make_score_set(seed, stream, n_clips, prefix)
    if {cls for _, _, _, cls in truth} != set(CLASSES):
        raise RuntimeError("every class needs truth events")
    write_scores_csv(out / "scores.csv", clip_ids, scores, HOP_S)
    write_truth(out / "truth.tsv", truth)
    write_durations(out / "durations.tsv", clip_ids)
    return clip_ids, scores, truth


def gen_tune(out: Path, seed: int, size: dict) -> dict:
    clip_ids, _, truth = _score_set_files(out, seed, 4, size["val_clips"], "val")
    lines = [f"{k}=" + ",".join(str(v) for v in vals) for k, vals in TUNE_GRID.items()]
    (out / "grid.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    n_points = int(np.prod([len(v) for v in TUNE_GRID.values()]))
    return {
        "scores": "scores.csv", "truth": "truth.tsv", "durations": "durations.tsv",
        "grid": "grid.cfg", "grid_axes": {k: list(v) for k, v in TUNE_GRID.items()},
        "clips": len(clip_ids), "truth_events": len(truth), "grid_points": n_points,
    }


def gen_score(out: Path, seed: int, size: dict) -> dict:
    clip_ids, scores, truth = _score_set_files(out, seed, 5, size["test_clips"], "test")
    seg_scores, soft = segment_files(scores, truth, clip_ids)
    write_scores_csv(out / "seg_scores.csv", clip_ids, np.round(seg_scores, 6), 1.0)
    write_scores_csv(out / "seg_truth.csv", clip_ids, soft, 1.0)
    return {
        "scores": "scores.csv", "truth": "truth.tsv", "durations": "durations.tsv",
        "seg_scores": "seg_scores.csv", "seg_truth": "seg_truth.csv",
        "clips": len(clip_ids), "truth_events": len(truth),
        "classes": list(CLASSES), "clip_s": N_FRAMES * HOP_S,
        "config": dict(SCORE_CONFIG),
    }


_GENERATORS = {"feature-path": gen_feature_path, "tune": gen_tune, "score": gen_score}


def generate(workload: str, seed: int, size_name: str, out: Path) -> None:
    """Write the inputs of one workload, and its warm-up inputs, under out."""
    for sub, name, s in ((out, size_name, seed), (out / "warmup", "tiny", seed + 1)):
        sub.mkdir(parents=True, exist_ok=True)
        plan = _GENERATORS[workload](sub, s, SIZES[name])
        plan.update(workload=workload, seed=s, size=name, round=SIZES[name])
        (sub / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    generate(args.workload, args.seed, args.size, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
