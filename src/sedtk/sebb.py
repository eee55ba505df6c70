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
    ConfigInvalidError, EmptyGridError, InvalidFilterLenError, InvalidParameterError,
    ScoreOutOfRangeError, UnknownClassError, UnsortedInputError,
)
from .metrics import (
    AnnotationSet, Event, PsdsConfig, _coded, _curve, _match_counts, psds,
    psd_roc,  # not called here; perfbench/spans.py times it at this name too
)

_ROW_BLOCK = 64  # rows per stack in tune_csebb; larger stacks only add fresh multi-MB temporaries


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
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
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
            raise InvalidFilterLenError(f"filter_len must be odd and >= 3, got {self.filter_len}")
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
    CsebbConfig(filter_len=filter_len)  # its filter_len rule
    rows = np.asarray(track_row, dtype=np.float64)
    if rows.ndim < 1 or rows.shape[-1] < 1:
        raise InvalidParameterError("track row must be a non-empty vector")
    h = (filter_len - 1) // 2
    n = rows.shape[-1]
    padded = np.empty(rows.shape[:-1] + (n + 2 * h,))
    padded[..., :h], padded[..., h + n :] = rows[..., :1], rows[..., -1:]
    padded[..., h : h + n] = rows
    cs = np.zeros(rows.shape[:-1] + (n + 2 * h + 1,))
    np.cumsum(padded, axis=-1, out=cs[..., 1:])
    fwd = cs[..., 2 * h + 1 :] - cs[..., h : h + n]  # sum of s[t .. t+h]
    bwd = cs[..., h : h + n] - cs[..., :n]           # sum of s[t-h .. t-1]
    fwd /= h + 1
    bwd /= h
    fwd -= bwd
    return fwd


def _boundaries(delta: np.ndarray, threshold: float):
    """Boundary marks ``(row, frame, kind, |delta|)`` of a (R, T) delta, as four arrays.

    The marks are in (row, frame) order. Onsets (kind 1) are the peaks of a
    row above +threshold, offsets (kind -1) its troughs below -threshold. A
    peak is a run of equal values in adjacent frames whose two neighbours in
    the row are both lower (a trough's are both higher), so no run on the
    row's first or last frame is either. Each is marked at frame
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
    order = np.argsort(key)
    peaks, key = peaks[order], key[order]
    return key // t, key % t, np.where(peaks < k * t, 1, -1), np.abs(line[peaks])


def _candidate_spans(rows, marks, threshold: float, n_frames: np.ndarray):
    """Candidate spans ``(row, onset_frame, offset_frame, confidence)`` of ``_boundaries`` marks.

    Only marks with |delta| above threshold count. Runs of same-kind marks
    in a row collapse to their strongest |delta| member (ties go to the
    earliest), then boundaries pair in temporal order: an unmatched leading
    offset opens at frame 0, an unmatched trailing onset closes at
    ``n_frames[row]``. The spans come in (row, onset) order.
    """
    row, frame, kind, mag = (a[marks[3] > threshold] for a in marks)
    code = 3 * row + kind  # one value per (row, kind)
    run = np.ones(row.size, dtype=bool)  # a run of same-kind marks in one row starts here
    np.not_equal(code[1:], code[:-1], out=run[1:])
    # the first of each run in (run, -|delta|) order: its earliest strongest mark
    keep = np.lexsort((-mag, np.cumsum(run)))[run]
    row, frame, kind = row[keep], frame[keep], kind[keep]
    # Kinds now alternate along a row, so each offset closes a span that the
    # mark before it opens if that is in its row, or else frame 0; a row's
    # last mark, if an onset, opens a span that closes at the row's end.
    after = row == np.append(-1, row)[:-1]  # the mark before is in this row
    offsets = kind < 0
    close = offsets | (row != np.append(row, -1)[1:])  # an offset or its row's last mark
    onset = np.where(offsets, np.append(0, frame)[:-1] * after, frame)[close]
    offset = np.where(offsets, frame, n_frames[row])[close]
    row = row[close]
    return row, onset, offset, _span_means(rows, row, onset, offset)


def _span_means(rows, row, start, stop) -> np.ndarray:
    """Mean of ``rows[r][a:b]`` per span, by one ``np.add.reduce`` each, as in ``_merge_frames``."""
    spans = zip(row.tolist(), start.tolist(), stop.tolist())
    sums = [np.add.reduce(rows[r][a:b]) for r, a, b in spans]
    return np.array(sums, dtype=np.float64) / (stop - start)


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
                gap_mean = float(np.add.reduce(gap) / gap.size) if gap.size else None
                if gap_mean is None or (
                    gap_mean >= abs_thr and min(prev[2], ev[2]) / gap_mean <= rel_thr
                ):
                    span = row[prev[0] : ev[1]]
                    merged[-1] = [prev[0], ev[1], float(np.add.reduce(span) / span.size)]
                    changed = True
                    continue
            merged.append(ev)
        events = merged
    return events


def _merge_spans(rows, spans, merges):
    """Per ``(abs_thr, rel_thr)`` of ``merges``, ``_candidate_spans`` spans after ``_merge_frames``.

    Spans come in (row, onset) order. A row goes through the loop only if its
    first pass would join two neighbours; other rows' spans come first, unchanged.
    """
    row, onset, offset, conf = spans
    left = np.flatnonzero(row[1:] == row[:-1])  # spans left and left + 1 are neighbours
    gap_mean = _span_means(rows, row[left], offset[left], onset[left + 1])  # no gap is empty
    low = np.minimum(conf[left], conf[left + 1])
    events = list(zip(onset.tolist(), offset.tolist(), conf.tolist()))
    for abs_thr, rel_thr in merges:
        joins = gap_mean >= abs_thr
        joins[joins] = low[joins] / gap_mean[joins] <= rel_thr
        redo = row[left[joins]]  # sorted, so each row's first entry starts its run
        redo = redo[np.diff(redo, prepend=-1) != 0]
        kept = np.ones(row.size, dtype=bool)
        boxes = []  # (row, onset, offset, confidence) of the rows in redo, merged
        starts, stops = np.searchsorted(row, [redo, redo + 1]).tolist()
        for r, a, b in zip(redo.tolist(), starts, stops):
            kept[a:b] = False
            boxes += [(r, *box) for box in _merge_frames(events[a:b], rows[r], abs_thr, rel_thr)]
        boxes = np.reshape(boxes, (-1, 4)).T
        merged_row, *rest = (np.concatenate([x[kept], y]) for x, y in zip(spans, boxes))
        yield (merged_row.astype(np.intp), *rest)


def detect_candidates(track: ScoreTrack, cfg: CsebbConfig) -> dict[str, list[SEBB]]:
    """Candidate bounding boxes per class, before gap merging."""
    hop, names = track.hop_seconds, track.class_names
    marks = _boundaries(delta_scores(track.scores, cfg.filter_len), cfg.boundary_threshold)
    n_frames = np.full(len(names), track.n_frames)
    spans = _candidate_spans(track.scores, marks, cfg.boundary_threshold, n_frames)
    out: dict[str, list[SEBB]] = {cname: [] for cname in names}
    for r, a, b, conf in zip(*(x.tolist() for x in spans)):
        out[names[r]].append(SEBB(a * hop, b * hop, names[r], conf))
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
    return [SEBB(a * hop_seconds, b * hop_seconds, cname, conf) for a, b, conf in merged]


def detect_sebbs(track: ScoreTrack, cfg: CsebbConfig) -> list[SEBB]:
    """Full per-clip candidate pipeline: detection plus gap merging."""
    out = []
    cands = detect_candidates(track, cfg)
    for k, cname in enumerate(track.class_names):
        boxes = cands[cname]  # fewer than two boxes have no gap to merge
        out.extend(merge_gaps(boxes, track.scores[k], cfg, track.hop_seconds)
                   if len(boxes) > 1 else boxes)
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
            raise UnknownClassError(f"no threshold for class {s.class_name!r} and no default")
        if s.confidence >= thr:
            kept.append(Event(clip_id, s.class_name, s.onset_s, s.offset_s))
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
    known = set(CsebbConfig.__dataclass_fields__)
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
    coded_truth, row_code, classes, code_col = _coded(
        truth.events, [(tr.clip_id, c) for tr in tracks for c in tr.class_names]
    )
    row_col = code_col[row_code]
    row_track = np.repeat(np.arange(len(tracks)), [len(tr.class_names) for tr in tracks])
    row_hop = np.array([tr.hop_seconds for tr in tracks])[row_track]
    rows = [row for tr in tracks for row in tr.scores]
    n_frames = np.array([row.size for row in rows], dtype=np.intp)
    # Consecutive rows of one length go through delta and boundaries in stacks
    # of up to _ROW_BLOCK rows, so the marks come out in (row, frame) order.
    cuts = (np.flatnonzero(np.diff(n_frames)) + 1).tolist()
    starts = sorted({*range(0, len(rows), _ROW_BLOCK), *cuts})
    blocks = list(zip(starts, starts[1:] + [len(rows)]))

    # Each stage runs once for the axes it depends on: peaks and troughs per
    # filter_len (the marks beyond the smallest boundary_threshold serve every
    # one), candidate spans per boundary_threshold, merging per merge pair.
    floor = axes["boundary_threshold"][0]
    best: tuple[float, CsebbConfig] | None = None
    for fl in axes["filter_len"]:
        found = [(np.empty(0, np.intp),) * 3 + (np.empty(0),)]  # the marks of no rows
        for a, b in blocks:
            row, *rest = _boundaries(delta_scores(np.stack(rows[a:b]), fl), floor)
            found.append((row + a, *rest))
        marks = [np.concatenate(field) for field in zip(*found)]
        for bt in axes["boundary_threshold"]:
            spans = _candidate_spans(rows, marks, bt, n_frames)
            merged = _merge_spans(rows, spans, merges)
            for (ma, mr), (row, onset, offset, conf) in zip(merges, merged):
                cfg = CsebbConfig(fl, ma, mr, bt)
                track = row_track[row]
                onset, offset = onset * row_hop[row], offset * row_hop[row]
                # tracks in order, then each track's boxes by onset, then class
                # name, as detect_sebbs orders them
                order = np.lexsort((row_col[row], onset, track))
                dets = (row_code[row][order], onset[order], offset[order], conf[order])
                tp, fp = _match_counts(
                    coded_truth, dets, code_col, len(classes),
                    psds_cfg.rho_dtc, psds_cfg.rho_gtc, psds_cfg.thresholds,
                )
                clips = [tracks[i].clip_id for i in np.flatnonzero(np.bincount(track)).tolist()]
                value = psds(_curve(classes, tp, fp, clips, truth, psds_cfg))
                if best is None or value > best[0] + 1e-12:
                    best = (value, cfg)
    assert best is not None
    return best[1]
