"""Event-level PSDS and segment-level macro partial AUC.

PSDS side: detections are validated by intersection criteria (a detection
must overlap same-class truth for at least rho_dtc of its own duration; a
truth event counts as found when valid detections cover at least rho_gtc
of it). Operating points, one per threshold of a sweep or one per given
detection list, form a monotone staircase of (false positives per hour,
TPR averaged over the truth classes minus alpha_st times its std); PSDS
is the normalized area under that staircase up to e_max.

Segment side: soft segment labels are hardened at 0.5 into one bool
(segments, classes) array per clip. Over aligned (cells, classes) arrays,
each class gets a ROC partial area up to max_fpr, interpolated at the cut
and standardized so that chance maps to 0.5 and perfect ranking to 1.0.
The macro average over classes is mpAUC.
"""

from __future__ import annotations

import numbers
import warnings
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateClassWarning, InvalidIntervalError, InvalidParameterError

HARD_THRESHOLD = 0.5  # a soft segment label at or above this is positive


@dataclass(frozen=True)
class Event:
    """A detected or annotated event: clip, class, and time span in seconds."""

    clip_id: str
    class_name: str
    onset_s: float
    offset_s: float

    def __post_init__(self):
        if not self.onset_s < self.offset_s:
            raise InvalidIntervalError(
                f"event offset ({self.offset_s}) must exceed onset ({self.onset_s})"
            )


@dataclass
class AnnotationSet:
    """Ground truth: hard event lists and clip durations."""

    events: list[Event] = field(default_factory=list)
    clip_durations: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for clip, dur in self.clip_durations.items():
            if not 0 < dur < float("inf"):
                raise InvalidParameterError(f"duration of {clip!r} must be finite and > 0")
        for ev in self.events:
            dur = self.clip_durations.get(ev.clip_id)
            if dur is not None and ev.offset_s > dur + 1e-9:
                raise InvalidIntervalError(
                    f"event {ev.class_name} [{ev.onset_s}, {ev.offset_s}) exceeds "
                    f"duration {dur} of clip {ev.clip_id!r}"
                )


@dataclass(frozen=True)
class PsdsConfig:
    rho_dtc: float = 0.7
    rho_gtc: float = 0.7
    alpha_st: float = 1.0
    e_max: float = 100.0  # false positives per hour
    thresholds: tuple[float, ...] = field(
        default_factory=lambda: tuple((np.arange(1, 51) / 51.0).tolist())
    )

    def __post_init__(self):
        if not (0 < self.rho_dtc <= 1 and 0 < self.rho_gtc <= 1):
            raise InvalidParameterError("rho criteria must be in (0, 1]")
        if not 0 <= self.alpha_st < float("inf"):
            raise InvalidParameterError("alpha_st must be finite and >= 0")
        if not 0 < self.e_max < float("inf"):
            raise InvalidParameterError("e_max must be finite and > 0")
        if len(self.thresholds) == 0:
            raise InvalidParameterError("need at least one threshold")
        if not all(0 <= t <= 1 for t in self.thresholds):
            raise InvalidParameterError("thresholds must lie in [0, 1]")


def intersection_match(
    dets: Sequence[Event],
    truth: Sequence[Event],
    rho_dtc: float = 0.7,
    rho_gtc: float = 0.7,
) -> dict[str, tuple[int, int]]:
    """Count per-class (TP, FP) under the intersection criteria.

    A detection is valid when its total intersection with same-class truth
    in the same clip covers at least rho_dtc of its duration; invalid
    detections are false positives. A truth event is a true positive when
    valid detections cover at least rho_gtc of it.

    Overlaps are summed, not merged: a duplicated detection adds its
    overlap to a truth event's coverage twice, and overlapping same-class
    truth events add to a detection's intersection twice.
    """
    classes, tp, fp = _scored_counts([(1.0, d) for d in dets], truth, rho_dtc, rho_gtc, (1.0,))
    return {cls: (int(tp[0, j]), int(fp[0, j])) for j, cls in enumerate(classes)}


def _list_order_sums(terms, starts, lengths, confs=None, levels=None) -> np.ndarray:
    """Per row r, the sum of ``terms[starts[r] : starts[r] + lengths[r]]``
    added one by one in slice order; with ``levels``, only the terms whose
    ``confs`` entry is >= ``levels[r]`` count.

    Pass j adds the j-th term of every row that has one, so each row adds
    its terms in order (np.sum adds pairwise past 8 terms, so its rounding
    differs). A term that does not count adds +0.0, which leaves the sum as
    it is: a sum that starts at +0.0 is never -0.0.
    """
    sums = np.zeros(lengths.size)
    rows = np.flatnonzero(lengths)
    j = 0
    while rows.size:
        at = starts[rows] + j
        term = terms[at]
        if levels is not None:
            term = np.where(confs[at] >= levels[rows], term, 0.0)
        sums[rows] += term
        j += 1
        rows = rows[lengths[rows] > j]
    return sums


def _tally(values: np.ndarray, cols: np.ndarray, n_cols: int, levels: np.ndarray) -> np.ndarray:
    """(len(levels), n_cols) counts of the values >= each level, per column."""
    order = np.argsort(levels, kind="stable")
    reached = np.searchsorted(levels[order], values, side="right")  # levels at or below
    hist = np.bincount(reached * n_cols + cols, minlength=(levels.size + 1) * n_cols)
    at_or_above = np.cumsum(hist.reshape(levels.size + 1, n_cols)[::-1], axis=0)[::-1]
    tally = np.empty((levels.size, n_cols), dtype=np.int64)
    tally[order] = at_or_above[1:]
    return tally


def _coded(
    truth: Sequence[Event], keys: Sequence[tuple[str, str]]
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray, list[str], np.ndarray]:
    """The truth events and a (clip, class) key per detection, coded for ``_match_counts``.

    Every distinct (clip, class) of the truth events, then of ``keys``, gets a
    code in first-seen order. Returns the truth's ``(code, onset, offset)``
    arrays, the code of each key, the sorted classes and ``code_col``, the
    column of each code's class among them.
    """
    every = list(map(attrgetter("clip_id", "class_name"), truth)) + list(keys)
    codes = {key: i for i, key in enumerate(dict.fromkeys(every))}
    code = np.fromiter(map(codes.__getitem__, every), dtype=np.intp, count=len(every))
    classes = sorted({cls for _, cls in codes})
    column = {cls: j for j, cls in enumerate(classes)}
    code_col = np.array([column[cls] for _, cls in codes], dtype=np.intp)
    spans = np.array(list(map(attrgetter("onset_s", "offset_s"), truth)), dtype=np.float64)
    return (code[: len(truth)], *spans.reshape(-1, 2).T), code[len(truth) :], classes, code_col


def _scored_counts(
    scored: Sequence[tuple[float, Event]],
    truth: Sequence[Event],
    rho_dtc: float,
    rho_gtc: float,
    thresholds: Sequence[float],
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``_match_counts`` of ``(confidence, Event)`` pairs against truth events.

    Returns the sorted classes of ``scored`` and ``truth`` and two
    (len(thresholds), len(classes)) int arrays, TP and FP.
    """
    dets = [e for _, e in scored]
    coded_truth, code, classes, code_col = _coded(
        truth, list(map(attrgetter("clip_id", "class_name"), dets))
    )
    spans = np.array(list(map(attrgetter("onset_s", "offset_s"), dets)), dtype=np.float64)
    conf = np.array([c for c, _ in scored], dtype=np.float64)
    tp, fp = _match_counts(
        coded_truth, (code, *spans.reshape(-1, 2).T, conf),
        code_col, len(classes), rho_dtc, rho_gtc, thresholds,
    )
    return classes, tp, fp


def _match_counts(
    truth: tuple[np.ndarray, np.ndarray, np.ndarray],
    dets: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    code_col: np.ndarray,
    n_cols: int,
    rho_dtc: float,
    rho_gtc: float,
    thresholds: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column TP and FP counts at every threshold from one matching pass.

    ``truth`` holds the ``(code, onset, offset)`` arrays of the truth events
    and ``dets`` the ``(code, onset, offset, confidence)`` arrays of the
    detections. A code names one (clip, class), and ``code_col[code]`` is
    the column of its class. Returns two (len(thresholds), n_cols) int
    arrays, TP and FP.

    The detections at threshold tau are those with confidence >= tau. A
    detection is valid when the sum of its overlaps with same-code truth
    covers at least rho_dtc of it; that does not depend on the threshold. At
    tau the invalid detections at or above tau are the false positives. A
    truth event's reach is the highest confidence at which the valid
    detections at or above it cover rho_gtc of the event (-inf if none); at
    tau the truth events whose reach is >= tau are the true positives.

    Every coverage is a sum in list order: a detection's overlaps in truth
    order, a truth event's overlaps in detection order. Adding a nonnegative
    term never lowers a rounded sum, so coverage only grows as the threshold
    falls, and the reach is the highest hit confidence whose coverage passes.

    Memory is linear in the same-code (detection, truth) pairs. The
    (levels, hits) coverage of a truth event is quadratic in its hits, but it
    is summed one column of hits at a time: 3000 hits on one event take a
    few arrays of 3000 entries, not the 9e6-cell square.
    """
    t_code, t_on, t_off = truth
    d_code, d_on, d_off, conf = dets
    # (detection, truth) pairs within a code, by detection, then truth order:
    # pair p of detection d takes the truth event at position
    # code start + (p - first pair of d) of the truth sorted by code.
    t_order = np.argsort(t_code, kind="stable")
    t_count = np.bincount(t_code, minlength=code_col.size)
    per_det = t_count[d_code]
    shift = (np.cumsum(t_count)[d_code] - per_det) - (np.cumsum(per_det) - per_det)
    pair_det = np.repeat(np.arange(d_code.size), per_det)
    pair_truth = t_order[np.repeat(shift, per_det) + np.arange(pair_det.size)]
    overlap = np.maximum(
        0.0,
        np.minimum(d_off[pair_det], t_off[pair_truth])
        - np.maximum(d_on[pair_det], t_on[pair_truth]),
    )
    hit = overlap > 0  # a zero term leaves a list-order sum as it is
    pair_det, pair_truth, overlap = pair_det[hit], pair_truth[hit], overlap[hit]

    n_terms = np.bincount(pair_det, minlength=d_code.size)
    dtc = _list_order_sums(overlap, np.cumsum(n_terms) - n_terms, n_terms)
    valid = dtc / (d_off - d_on) >= rho_dtc

    # Valid hits by truth event, each in detection order; one coverage per hit level.
    keep = np.flatnonzero(valid[pair_det])
    keep = keep[np.argsort(pair_truth[keep], kind="stable")]
    hit_truth, hit_conf = pair_truth[keep], conf[pair_det[keep]]
    n_hits = np.bincount(hit_truth, minlength=t_code.size)
    first = np.cumsum(n_hits) - n_hits
    gtc = _list_order_sums(
        overlap[keep], first[hit_truth], n_hits[hit_truth], hit_conf, hit_conf
    )
    passed = gtc / (t_off - t_on)[hit_truth] >= rho_gtc
    reach = np.full(t_code.size, -np.inf)
    np.maximum.at(reach, hit_truth[passed], hit_conf[passed])

    levels = np.asarray(thresholds, dtype=np.float64)
    tp = _tally(reach, code_col[t_code], n_cols, levels)
    fp = _tally(conf[~valid], code_col[d_code[~valid]], n_cols, levels)
    return tp, fp


def _curve(
    classes: list[str], tp: np.ndarray, fp: np.ndarray, clips, truth: AnnotationSet,
    cfg: PsdsConfig,
) -> list[tuple[float, float]]:
    """Monotone upper staircase, anchored at (0, 0), of one operating point per row.

    Row r counts ``tp[r, j]`` true and ``fp[r, j]`` false positives of
    ``classes[j]``, which holds every truth class; ``clips`` are the clip
    ids that the detections name. eFPR is the false positives of every class
    per hour of annotated audio, eTPR the TPR mean over the truth classes
    minus alpha_st times their std.
    """
    if not truth.clip_durations:
        raise InvalidParameterError("truth must carry clip durations for eFPR")
    clips = set(clips).union(map(attrgetter("clip_id"), truth.events))
    missing = sorted(clips - truth.clip_durations.keys())
    if missing:
        named = ", ".join(map(repr, missing[:5]))
        more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
        raise InvalidParameterError(f"no duration for clip {named}{more}")
    efpr = fp.sum(axis=1) / (sum(truth.clip_durations.values()) / 3600.0)
    n_truth = Counter(map(attrgetter("class_name"), truth.events))
    if n_truth:
        eval_classes = sorted(n_truth)
        # numpy sums each row of a C-ordered array pairwise, as it sums a 1-D
        # array, but an F-ordered one (a column pick) column by column.
        tprs = np.ascontiguousarray(
            tp[:, [classes.index(c) for c in eval_classes]]
            / np.array([n_truth[c] for c in eval_classes], dtype=np.int64)
        )
        etpr = tprs.mean(axis=1) - cfg.alpha_st * tprs.std(axis=1)
    else:
        etpr = np.zeros(efpr.size)
    curve = [(0.0, 0.0)]
    for efpr, etpr in sorted(zip(efpr.tolist(), etpr.tolist())):
        if etpr > curve[-1][1]:
            if efpr == curve[-1][0]:
                curve[-1] = (efpr, etpr)
            else:
                curve.append((efpr, etpr))
    return curve


def _is_scored(items: list) -> bool:
    first = items[0] if items else None
    return (
        isinstance(first, tuple)
        and len(first) == 2
        and isinstance(first[0], numbers.Real)
        and isinstance(first[1], Event)
    )


def psd_roc(
    detections, truth: AnnotationSet, cfg: PsdsConfig = PsdsConfig()
) -> list[tuple[float, float]]:
    """Operating points as a monotone staircase.

    ``detections`` takes one of three forms:

    - a sequence of ``(confidence, Event)`` pairs. The detections at
      threshold tau are the events with confidence >= tau, and every
      threshold of cfg.thresholds is scored from one matching pass;
    - a callable mapping a threshold to an event list, called once per
      threshold of cfg.thresholds;
    - a sequence of event lists, one operating point each. This form never
      reads cfg.thresholds, so one list gives one point.

    The TPR mean/std run over the classes present in the truth events.
    False positives of every class count toward the per-hour rate,
    normalized by the total annotated audio duration, so every clip that a
    truth event or a detection names must have a duration.
    """
    if callable(detections):
        detections = [detections(t) for t in cfg.thresholds]
    detections = list(detections)
    if _is_scored(detections):
        events = [e for _, e in detections]
        classes, tp, fp = _scored_counts(
            detections, truth.events, cfg.rho_dtc, cfg.rho_gtc, cfg.thresholds
        )
    else:
        events = [e for dets in detections for e in dets]
        counts = [
            intersection_match(dets, truth.events, cfg.rho_dtc, cfg.rho_gtc)
            for dets in detections
        ]
        # the truth classes have columns also when there are no lists
        classes = sorted({e.class_name for e in truth.events}.union(*counts))
        pairs = np.array([[c.get(cls, (0, 0)) for cls in classes] for c in counts], dtype=np.int64)
        tp, fp = pairs.reshape(len(counts), len(classes), 2).transpose(2, 0, 1)
    return _curve(classes, tp, fp, map(attrgetter("clip_id"), events), truth, cfg)


def psds(curve: Sequence[tuple[float, float]], cfg: PsdsConfig = PsdsConfig()) -> float:
    """Normalized area under the staircase for eFPR in [0, e_max]."""
    area = 0.0
    level = 0.0
    last_e = 0.0
    for efpr, etpr in sorted(curve):
        e = min(efpr, cfg.e_max)
        if e > last_e:
            area += level * (e - last_e)
            last_e = e
        level = max(level, etpr)
    area += level * (cfg.e_max - last_e)
    return area / cfg.e_max


def segmentize(
    truth: Mapping[str, np.ndarray], classes: Sequence[str]
) -> dict[str, np.ndarray]:
    """One bool (n_segments, len(classes)) label array per clip, clips sorted.

    ``truth`` maps each clip id to soft labels, an (n_segments, len(classes))
    array in [0, 1]: values >= HARD_THRESHOLD are positive.
    """
    labels = {}
    for clip, values in sorted(truth.items()):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != len(classes) or not ((v >= 0) & (v <= 1)).all():
            raise InvalidParameterError(
                f"soft labels of {clip!r} must be an (n_segments, {len(classes)}) "
                f"array in [0, 1], got shape {v.shape}"
            )
        labels[clip] = v >= HARD_THRESHOLD
    return labels


def partial_roc_auc(labels, scores, max_fpr: float = 0.1) -> float:
    """Standardized partial area under the ROC curve for FPR in [0, max_fpr].

    The ROC is built from all distinct score thresholds; the area is
    integrated trapezoidally with linear interpolation at the max_fpr cut,
    then mapped so chance is 0.5 and perfect ranking 1.0.
    """
    if not 0 < max_fpr <= 1:
        raise InvalidParameterError(f"max_fpr must be in (0, 1], got {max_fpr}")
    y = np.asarray(labels).astype(bool)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1:
        raise InvalidParameterError("labels and scores must be equal-length 1-D")
    n_pos = int(y.sum())
    n_neg = int((~y).sum())
    if n_pos == 0 or n_neg == 0:
        raise InvalidParameterError("need at least one positive and one negative")

    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    distinct = np.nonzero(np.diff(s_sorted))[0]
    idx = np.concatenate([distinct, [y.size - 1]])
    tps = np.cumsum(y_sorted)[idx]
    fps = idx + 1 - tps
    tpr = np.concatenate([[0.0], tps / n_pos])
    fpr = np.concatenate([[0.0], fps / n_neg])

    if fpr[-1] < max_fpr:
        cut_tpr = tpr[-1]
    else:
        cut_tpr = float(np.interp(max_fpr, fpr, tpr))
    # keep points at the cut itself so a vertical run at max_fpr stays
    # zero-width instead of inflating the final trapezoid
    keep = fpr <= max_fpr
    fpr_p = np.concatenate([fpr[keep], [max_fpr]])
    tpr_p = np.concatenate([tpr[keep], [cut_tpr]])
    # np.trapezoid's sum, spelled out: numpy < 2.0 has only np.trapz
    pauc = float(np.add.reduce(np.diff(fpr_p) * (tpr_p[1:] + tpr_p[:-1]) / 2.0))

    min_area = 0.5 * max_fpr**2
    max_area = max_fpr
    return 0.5 * (1.0 + (pauc - min_area) / (max_area - min_area))


def mpauc_report(scores, labels, classes: Sequence[str], max_fpr: float = 0.1) -> dict:
    """Per-class partial AUCs plus the macro average.

    ``scores`` (float) and ``labels`` (bool) are aligned (cells, K) arrays
    whose column k belongs to ``classes[k]``. Classes lacking positives or
    negatives are excluded from the macro mean and reported under
    ``excluded``.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if y.dtype != bool or s.ndim != 2 or s.shape != y.shape or s.shape[1] != len(classes):
        raise InvalidParameterError(
            f"need float scores and bool labels of one shape (cells, {len(classes)}), "
            f"got {s.shape} and {y.dtype} {y.shape}"
        )
    per_class: dict[str, float] = {}
    excluded: list[str] = []
    for k, cls in enumerate(classes):
        if y[:, k].all() or not y[:, k].any():  # also true for zero cells
            excluded.append(cls)
            warnings.warn(
                f"class {cls!r} lacks positives or negatives; excluded",
                DegenerateClassWarning,
            )
            continue
        per_class[cls] = partial_roc_auc(y[:, k], s[:, k], max_fpr)
    if not per_class:
        raise InvalidParameterError("no class has both positives and negatives")
    macro = float(np.mean(list(per_class.values())))
    return {"mpauc": macro, "per_class": per_class, "excluded": excluded}


def joint_score(psds_value: float, mpauc_value: float) -> float:
    """Sum of the event-level and segment-level metric values."""
    for name, v in (("psds", psds_value), ("mpauc", mpauc_value)):
        if not 0.0 <= v <= 1.0:
            raise InvalidParameterError(f"{name} must be in [0,1], got {v}")
    return psds_value + mpauc_value
