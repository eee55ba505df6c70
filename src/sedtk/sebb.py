"""Change-point sound event bounding boxes over frame-level posteriors.

Per class: a two-sided moving-average difference ("delta") highlights score
changes; peaks above +boundary_threshold are tentative onsets and troughs
below -boundary_threshold tentative offsets. Boundaries are paired in
temporal order (an unmatched onset closes at the clip end, an unmatched
offset opens at the clip start), each candidate gets the mean score between
its boundaries as confidence, small gaps are merged, and class-wise
event-level thresholding on confidences yields the final detections. The
confidence threshold trades sensitivity for precision without moving any
surviving event's boundaries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.signal import find_peaks

from .errors import (
    ConfigInvalidError,
    EmptyGridError,
    InvalidFilterLenError,
    InvalidParameterError,
    ScoreOutOfRangeError,
    UnknownClassError,
    UnsortedInputError,
)
from .metrics import AnnotationSet, Event, psd_roc, psds


@dataclass(frozen=True)
class ScoreTrack:
    """Frame-level class posteriors for one clip: (K, T) scores in [0, 1]."""

    scores: np.ndarray
    hop_seconds: float
    class_names: tuple[str, ...]
    clip_id: str

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 2:
            raise ConfigInvalidError(f"scores must be (K, T), got ndim={arr.ndim}")
        if arr.shape[0] != len(self.class_names):
            raise ConfigInvalidError(
                f"{arr.shape[0]} score rows but {len(self.class_names)} class names"
            )
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ScoreOutOfRangeError(
                f"scores must lie in [0,1], found range "
                f"[{arr.min():.6g}, {arr.max():.6g}]"
            )
        if not self.hop_seconds > 0:
            raise ConfigInvalidError(f"hop_seconds must be > 0, got {self.hop_seconds}")
        arr.flags.writeable = False
        object.__setattr__(self, "scores", arr)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def n_frames(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class SEBB:
    """Candidate detection: time span, class, and a confidence in [0, 1]."""

    onset_s: float
    offset_s: float
    class_name: str
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.onset_s < self.offset_s:
            raise InvalidParameterError(
                f"need 0 <= onset < offset, got [{self.onset_s}, {self.offset_s})"
            )
        if not 0.0 <= self.confidence <= 1.0:
            raise InvalidParameterError(f"confidence {self.confidence} not in [0,1]")


@dataclass(frozen=True)
class CsebbConfig:
    filter_len: int = 21
    merge_threshold_abs: float = 0.15
    merge_threshold_rel: float = 1.5
    boundary_threshold: float = 0.1

    def __post_init__(self):
        if self.filter_len < 3 or self.filter_len % 2 == 0:
            raise InvalidFilterLenError(
                f"filter_len must be odd and >= 3, got {self.filter_len}"
            )
        for name in ("merge_threshold_abs", "merge_threshold_rel", "boundary_threshold"):
            if not getattr(self, name) > 0:
                raise ConfigInvalidError(f"{name} must be > 0, got {getattr(self, name)}")


def delta_scores(track_row, filter_len: int) -> np.ndarray:
    """Two-sided moving-average difference of a score row, or of each row.

    delta[t] = mean(s[t .. t+h]) - mean(s[t-h .. t-1]) with h = (filter_len-1)/2;
    window indices are clamped to [0, T-1] (edge replication). Input of shape
    (..., T) is taken row by row along its last axis; the output has the
    input's shape.
    """
    if filter_len < 3 or filter_len % 2 == 0:
        raise InvalidFilterLenError(
            f"filter_len must be odd and >= 3, got {filter_len}"
        )
    rows = np.asarray(track_row, dtype=np.float64)
    if rows.ndim < 1 or rows.shape[-1] < 1:
        raise InvalidParameterError("track row must be a non-empty vector")
    h = (filter_len - 1) // 2
    n = rows.shape[-1]
    padded = np.pad(rows, [(0, 0)] * (rows.ndim - 1) + [(h, h)], mode="edge")
    cs = np.concatenate(
        [np.zeros(rows.shape[:-1] + (1,)), np.cumsum(padded, axis=-1)], axis=-1
    )
    fwd = (cs[..., 2 * h + 1 : 2 * h + 1 + n] - cs[..., h : h + n]) / (h + 1)  # s[t .. t+h]
    bwd = (cs[..., h : h + n] - cs[..., :n]) / h                               # s[t-h .. t-1]
    return fwd - bwd


def _boundaries(delta: np.ndarray, threshold: float):
    """Onset/offset frame candidates: delta extrema beyond +/- threshold."""
    peaks, _ = find_peaks(delta)
    troughs, _ = find_peaks(-delta)
    onsets = peaks[delta[peaks] > threshold].tolist()
    offsets = troughs[delta[troughs] < -threshold].tolist()
    return onsets, offsets


def _pair_boundaries(onsets, offsets, delta, n_frames):
    """Alternate and pair boundaries; returns (onset, offset) frame spans.

    Runs of same-type boundaries collapse to the strongest |delta| member
    (ties go to the earliest). An unmatched leading offset opens at frame 0;
    an unmatched trailing onset closes at the final frame boundary.
    """
    marks = sorted(
        [(t, 1, abs(delta[t])) for t in onsets] + [(t, -1, abs(delta[t])) for t in offsets]
    )
    collapsed = []
    for kind, group in itertools.groupby(marks, key=lambda m: m[1]):
        group = list(group)
        best = max(group, key=lambda m: m[2])
        collapsed.append((best[0], kind))
    spans = []
    pending_onset = None
    for t, kind in collapsed:
        if kind == 1:
            pending_onset = t
        else:
            spans.append((pending_onset if pending_onset is not None else 0, t))
            pending_onset = None
    if pending_onset is not None:
        spans.append((pending_onset, n_frames))
    return spans


def detect_candidates(track: ScoreTrack, cfg: CsebbConfig) -> dict[str, list[SEBB]]:
    """Candidate bounding boxes per class, before gap merging."""
    out: dict[str, list[SEBB]] = {}
    deltas = delta_scores(track.scores, cfg.filter_len)
    for k, cname in enumerate(track.class_names):
        row = track.scores[k]
        delta = deltas[k]
        onsets, offsets = _boundaries(delta, cfg.boundary_threshold)
        spans = _pair_boundaries(onsets, offsets, delta, track.n_frames)
        cands = []
        for on_f, off_f in spans:
            conf = float(row[on_f:off_f].mean())
            cands.append(
                SEBB(
                    onset_s=on_f * track.hop_seconds,
                    offset_s=off_f * track.hop_seconds,
                    class_name=cname,
                    confidence=conf,
                )
            )
        out[cname] = cands
    return out


def merge_gaps(
    cands: Sequence[SEBB],
    track_row,
    cfg: CsebbConfig,
    hop_seconds: float,
) -> list[SEBB]:
    """Merge adjacent same-class candidates across shallow gaps.

    Neighbors A, B merge when the mean score inside the gap is at least
    merge_threshold_abs and min(conf_A, conf_B) / gap_mean is at most
    merge_threshold_rel (an empty gap always merges). The merged confidence
    is the mean score over the union span. Passes repeat until a fixpoint.
    """
    row = np.asarray(track_row, dtype=np.float64)
    if len({s.class_name for s in cands}) > 1:
        raise InvalidParameterError("merge_gaps expects candidates of one class")
    events = []
    for s in cands:
        on_f = int(round(s.onset_s / hop_seconds))
        off_f = int(round(s.offset_s / hop_seconds))
        events.append([on_f, off_f, s.confidence])
    for prev, cur in zip(events, events[1:]):
        if cur[0] < prev[1]:
            raise UnsortedInputError(
                "candidates must be sorted by onset and non-overlapping"
            )
    cname = cands[0].class_name if cands else ""

    changed = True
    while changed:
        changed = False
        merged = []
        for ev in events:
            if merged:
                prev = merged[-1]
                gap = row[prev[1] : ev[0]]
                if gap.size == 0:
                    do_merge = True
                else:
                    gap_mean = float(gap.mean())
                    do_merge = (
                        gap_mean >= cfg.merge_threshold_abs
                        and min(prev[2], ev[2]) / gap_mean <= cfg.merge_threshold_rel
                    )
                if do_merge:
                    union = row[prev[0] : ev[1]]
                    merged[-1] = [prev[0], ev[1], float(union.mean())]
                    changed = True
                    continue
            merged.append(list(ev))
        events = merged
    return [
        SEBB(
            onset_s=on_f * hop_seconds,
            offset_s=off_f * hop_seconds,
            class_name=cname,
            confidence=conf,
        )
        for on_f, off_f, conf in events
    ]


def detect_sebbs(track: ScoreTrack, cfg: CsebbConfig) -> list[SEBB]:
    """Full per-clip candidate pipeline: detection plus gap merging."""
    out = []
    cands = detect_candidates(track, cfg)
    for k, cname in enumerate(track.class_names):
        out.extend(
            merge_gaps(cands[cname], track.scores[k], cfg, track.hop_seconds)
        )
    out.sort(key=lambda s: (s.onset_s, s.class_name))
    return out


def threshold_events(
    sebbs: Sequence[SEBB],
    thresholds: Mapping[str, float],
    clip_id: str = "",
    default: float | None = None,
) -> list[Event]:
    """Keep candidates whose confidence reaches their class threshold.

    Raises UnknownClassError when a candidate's class has no threshold and
    no default was given. Output is sorted by (onset, class).
    """
    for cls, thr in thresholds.items():
        if not 0.0 <= thr <= 1.0:
            raise InvalidParameterError(f"threshold for {cls!r} must be in [0,1]")
    kept = []
    for s in sebbs:
        thr = thresholds.get(s.class_name, default)
        if thr is None:
            raise UnknownClassError(
                f"no threshold for class {s.class_name!r} and no default"
            )
        if s.confidence >= thr:
            kept.append(
                Event(
                    clip_id=clip_id,
                    class_name=s.class_name,
                    onset_s=s.onset_s,
                    offset_s=s.offset_s,
                )
            )
    kept.sort(key=lambda e: (e.onset_s, e.class_name))
    return kept


def tune_csebb(
    tracks: Sequence[ScoreTrack],
    truth: AnnotationSet,
    grid: Mapping[str, Sequence],
) -> CsebbConfig:
    """Exhaustive grid search maximizing PSDS (default ``PsdsConfig``) on validation pairs.

    ``grid`` may list values for filter_len, boundary_threshold,
    merge_threshold_abs, and merge_threshold_rel; omitted keys fall back to
    the CsebbConfig default. Ties go to the smaller filter_len, then the
    smaller thresholds in the order (boundary, abs, rel).
    """
    defaults = CsebbConfig()
    known = {
        "filter_len",
        "boundary_threshold",
        "merge_threshold_abs",
        "merge_threshold_rel",
    }
    unknown = set(grid) - known
    if unknown:
        raise InvalidParameterError(f"unknown grid keys: {sorted(unknown)}")
    axes = {k: sorted(grid.get(k, [getattr(defaults, k)])) for k in known}
    if any(len(v) == 0 for v in axes.values()):
        raise EmptyGridError("every grid axis needs at least one value")

    best: tuple[float, CsebbConfig] | None = None
    for fl, bt, ma, mr in itertools.product(
        axes["filter_len"],
        axes["boundary_threshold"],
        axes["merge_threshold_abs"],
        axes["merge_threshold_rel"],
    ):
        cfg = CsebbConfig(
            filter_len=fl,
            merge_threshold_abs=ma,
            merge_threshold_rel=mr,
            boundary_threshold=bt,
        )
        sebbs_by_clip = {tr.clip_id: detect_sebbs(tr, cfg) for tr in tracks}
        scored = [
            (s.confidence, Event(clip_id, s.class_name, s.onset_s, s.offset_s))
            for clip_id, found in sebbs_by_clip.items()
            for s in found
        ]
        value = psds(psd_roc(scored, truth))
        if best is None or value > best[0] + 1e-12:
            best = (value, cfg)
    assert best is not None
    return best[1]
