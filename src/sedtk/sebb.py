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

from .errors import (
    ConfigInvalidError,
    EmptyGridError,
    InvalidFilterLenError,
    InvalidParameterError,
    ScoreOutOfRangeError,
    UnknownClassError,
    UnsortedInputError,
)
from .metrics import (
    AnnotationSet,
    Event,
    PsdsConfig,
    _match_counts,
    _require_durations,
    _staircase,
    _truth_totals,
    psd_roc,  # not called here; perfbench/spans.py times it at this name too
    psds,
)


@dataclass(frozen=True)
class ScoreTrack:
    """Frame-level class posteriors for one clip: (K, T) scores in [0, 1]; copies its input."""

    scores: np.ndarray
    hop_seconds: float
    class_names: tuple[str, ...]
    clip_id: str

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64)
        arr = arr.copy() if arr is self.scores else arr  # the caller's array: detach the track
        if arr.ndim != 2:
            raise ConfigInvalidError(f"scores must be (K, T), got ndim={arr.ndim}")
        if arr.shape[0] != len(self.class_names):
            raise ConfigInvalidError(
                f"{arr.shape[0]} score rows but {len(self.class_names)} class names"
            )
        if len(set(self.class_names)) < len(self.class_names):
            raise ConfigInvalidError(f"class names must be distinct, got {self.class_names}")
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

    @classmethod
    def _view(cls, scores, hop_seconds, class_names, clip_id) -> "ScoreTrack":
        """Wrap read-only float64 (K, T) scores and fields, all already checked, as they are."""
        track = object.__new__(cls)
        vars(track).update(
            scores=scores, hop_seconds=hop_seconds, class_names=class_names, clip_id=clip_id
        )
        return track

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
    padded = np.concatenate(
        [np.repeat(rows[..., :1], h, -1), rows, np.repeat(rows[..., -1:], h, -1)], axis=-1
    )
    cs = np.concatenate(
        [np.zeros(rows.shape[:-1] + (1,)), np.cumsum(padded, axis=-1)], axis=-1
    )
    fwd = (cs[..., 2 * h + 1 : 2 * h + 1 + n] - cs[..., h : h + n]) / (h + 1)  # s[t .. t+h]
    bwd = (cs[..., h : h + n] - cs[..., :n]) / h                               # s[t-h .. t-1]
    return fwd - bwd


def _boundaries(delta: np.ndarray, threshold: float) -> list[list[tuple[int, int, float]]]:
    """Boundary marks ``(frame, kind, |delta|)`` of each row of a (K, T) delta.

    One list per row, in frame order. Onsets (kind 1) are the peaks of a row
    above +threshold, offsets (kind -1) its troughs below -threshold. A peak
    is a run of equal values in adjacent frames whose two neighbours in the
    row are both lower (a trough's are both higher), so no run on the row's
    first or last frame is either. Each is marked at frame
    ``(first + last) // 2`` of its run.
    """
    k, t = delta.shape
    # The onset rows, then the negated offset rows, as one line of 2K rows.
    line = np.concatenate([delta, -delta]).ravel()
    # A peak's cells all lie above the threshold, so only those cells are
    # split into runs. Leaving out every row's first and last frame keeps
    # each run inside one row and gives every run two neighbours in it.
    above = (line > threshold).reshape(2 * k, t)
    above[:, 0] = above[:, -1] = False
    cells = np.flatnonzero(above)
    values = line[cells]
    # edge[i]: a run starts at cells[i] and the one before ends at cells[i - 1]
    edge = np.ones(cells.size + 1, dtype=bool)
    edge[1:-1] = (np.diff(cells) != 1) | (values[1:] != values[:-1])
    first, last = cells[edge[:-1]], cells[edge[1:]]
    height = line[first]
    peak = (line[first - 1] < height) & (line[last + 1] < height)
    peaks = (first[peak] + last[peak]) // 2
    # row * t + frame, for onsets and offsets alike; no frame is both
    key = peaks % (k * t)
    order = np.argsort(key, kind="stable")
    peaks, key = peaks[order], key[order]
    marks = list(zip(
        (key % t).tolist(),
        np.where(peaks < k * t, 1, -1).tolist(),
        np.abs(line[peaks]).tolist(),
    ))
    cuts = np.searchsorted(key, np.arange(k + 1) * t).tolist()
    return [marks[a:b] for a, b in zip(cuts, cuts[1:])]


def _candidate_frames(row: np.ndarray, marks, threshold: float) -> list[list]:
    """``[onset_frame, offset_frame, confidence]`` spans of one score row.

    Only the ``_boundaries`` marks with |delta| above threshold count. Runs
    of same-kind marks collapse to the strongest |delta| member (ties go to
    the earliest), then boundaries pair in temporal order: an unmatched
    leading offset opens at frame 0, an unmatched trailing onset closes at
    the final frame boundary. The confidence is the mean score over the span.
    """
    spans = []
    pending_onset = None
    strong = (m for m in marks if m[2] > threshold)
    for kind, group in itertools.groupby(strong, key=lambda m: m[1]):
        t = max(group, key=lambda m: m[2])[0]
        if kind == 1:
            pending_onset = t
        else:
            spans.append((pending_onset if pending_onset is not None else 0, t))
            pending_onset = None
    if pending_onset is not None:
        spans.append((pending_onset, row.shape[-1]))
    return [[a, b, float(np.add.reduce(row[a:b]) / (b - a))] for a, b in spans]


def _merge_frames(events: list[list], row: np.ndarray, abs_thr: float, rel_thr: float):
    """Gap-merge sorted ``[onset_frame, offset_frame, confidence]`` spans to a fixpoint.

    See ``merge_gaps`` for the rule. ``events`` and its items are not modified.
    """
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
                    gap_mean = float(np.add.reduce(gap) / gap.size)
                    do_merge = (
                        gap_mean >= abs_thr
                        and min(prev[2], ev[2]) / gap_mean <= rel_thr
                    )
                if do_merge:
                    span = row[prev[0] : ev[1]]
                    merged[-1] = [prev[0], ev[1], float(np.add.reduce(span) / span.size)]
                    changed = True
                    continue
            merged.append(ev)
        events = merged
    return events


def detect_candidates(track: ScoreTrack, cfg: CsebbConfig) -> dict[str, list[SEBB]]:
    """Candidate bounding boxes per class, before gap merging."""
    hop, bt = track.hop_seconds, cfg.boundary_threshold
    out: dict[str, list[SEBB]] = {}
    marks = _boundaries(delta_scores(track.scores, cfg.filter_len), bt)
    for cname, row, row_marks in zip(track.class_names, track.scores, marks):
        out[cname] = [
            SEBB(onset_s=a * hop, offset_s=b * hop, class_name=cname, confidence=conf)
            for a, b, conf in _candidate_frames(row, row_marks, bt)
        ]
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
    events = [
        [int(round(s.onset_s / hop_seconds)), int(round(s.offset_s / hop_seconds)), s.confidence]
        for s in cands
    ]
    for prev, cur in zip(events, events[1:]):
        if cur[0] < prev[1]:
            raise UnsortedInputError(
                "candidates must be sorted by onset and non-overlapping"
            )
    cname = cands[0].class_name if cands else ""
    merged = _merge_frames(events, row, cfg.merge_threshold_abs, cfg.merge_threshold_rel)
    return [
        SEBB(
            onset_s=on_f * hop_seconds,
            offset_s=off_f * hop_seconds,
            class_name=cname,
            confidence=conf,
        )
        for on_f, off_f, conf in merged
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
    named = {f"threshold for {cls!r}": thr for cls, thr in thresholds.items()}
    for name, thr in {**named, "default threshold": default}.items():
        if thr is not None and not 0.0 <= thr <= 1.0:
            raise InvalidParameterError(f"{name} must be in [0,1], got {thr}")
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

    seen: set[str] = set()
    for tr in tracks:
        if tr.clip_id in seen:
            raise InvalidParameterError(f"clip id {tr.clip_id!r} names more than one track")
        seen.add(tr.clip_id)
    merges = list(itertools.product(axes["merge_threshold_abs"], axes["merge_threshold_rel"]))

    # Coded once: a code per (clip, class), for the truth events and for each
    # score row; row r of the rows of all tracks belongs to track row_track[r].
    psds_cfg = PsdsConfig()
    hours, eval_classes, n_truth = _truth_totals(truth)
    codes: dict[tuple[str, str], int] = {}
    t_code = [codes.setdefault((e.clip_id, e.class_name), len(codes)) for e in truth.events]
    row_code = [codes.setdefault((tr.clip_id, c), len(codes))
                for tr in tracks for c in tr.class_names]
    classes = sorted({cls for _, cls in codes})
    column = {cls: j for j, cls in enumerate(classes)}
    code_col = np.array([column[cls] for _, cls in codes], dtype=np.intp)
    eval_cols = [column[cls] for cls in eval_classes]
    coded_truth = (
        np.array(t_code, dtype=np.intp),
        np.array([e.onset_s for e in truth.events], dtype=np.float64),
        np.array([e.offset_s for e in truth.events], dtype=np.float64),
    )
    row_code = np.array(row_code, dtype=np.intp)
    row_track = np.repeat(np.arange(len(tracks)), [len(tr.class_names) for tr in tracks])
    row_hop = np.array([tr.hop_seconds for tr in tracks])[row_track]
    rows = [row for tr in tracks for row in tr.scores]
    truth_clips = {e.clip_id for e in truth.events}

    # Each stage runs once for the axes it depends on: peaks and troughs per
    # filter_len (the marks beyond the smallest boundary_threshold serve every
    # one), candidate spans per boundary_threshold, merging per merge pair.
    floor = axes["boundary_threshold"][0]
    best: tuple[float, CsebbConfig] | None = None
    for fl in axes["filter_len"]:
        marks = [m for tr in tracks for m in _boundaries(delta_scores(tr.scores, fl), floor)]
        for bt in axes["boundary_threshold"]:
            cands = [_candidate_frames(row, m, bt) for row, m in zip(rows, marks)]
            for ma, mr in merges:
                cfg = CsebbConfig(fl, ma, mr, bt)
                merged = [_merge_frames(spans, row, ma, mr) for spans, row in zip(cands, rows)]
                n = np.array(list(map(len, merged)), dtype=np.intp)  # boxes per row
                box = np.array([b for m in merged for b in m], dtype=np.float64).reshape(-1, 3)
                track = np.repeat(row_track, n)
                hop = np.repeat(row_hop, n)
                onset, offset = box[:, 0] * hop, box[:, 1] * hop
                # tracks in order, then each track's boxes by onset, then class
                # name, as detect_sebbs orders them
                order = np.lexsort((np.repeat(code_col[row_code], n), onset, track))
                _require_durations(
                    truth_clips.union(tracks[i].clip_id for i in np.unique(track).tolist()),
                    truth.clip_durations,
                )
                dets = (np.repeat(row_code, n)[order], onset[order], offset[order], box[order, 2])
                tp, fp = _match_counts(
                    coded_truth, dets, code_col, len(classes),
                    psds_cfg.rho_dtc, psds_cfg.rho_gtc, psds_cfg.thresholds,
                )
                curve = _staircase(
                    fp.sum(axis=1), tp[:, eval_cols], n_truth, hours, psds_cfg.alpha_st
                )
                value = psds(curve)
                if best is None or value > best[0] + 1e-12:
                    best = (value, cfg)
    assert best is not None
    return best[1]
