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

import math
import numbers
import warnings
from dataclasses import dataclass, field
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

    @property
    def duration_s(self) -> float:
        return self.offset_s - self.onset_s


@dataclass
class AnnotationSet:
    """Ground truth: hard event lists and clip durations."""

    events: list[Event] = field(default_factory=list)
    clip_durations: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for clip, dur in self.clip_durations.items():
            if not dur > 0:
                raise InvalidParameterError(f"duration of {clip!r} must be > 0")
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
        if not self.e_max > 0:
            raise InvalidParameterError("e_max must be > 0")
        if len(self.thresholds) == 0:
            raise InvalidParameterError("need at least one threshold")


def _overlap(a_on, a_off, b_on, b_off) -> float:
    return max(0.0, min(a_off, b_off) - max(a_on, b_on))


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
    return _scored_counts([(1.0, d) for d in dets], truth, rho_dtc, rho_gtc, (1.0,))[0]


def _reach(t: Event, valid: Sequence[tuple[float, Event]], rho_gtc: float) -> float:
    """Highest confidence at which the valid detections at or above it cover
    rho_gtc of ``t``; -inf when no threshold makes ``t`` a true positive.

    Coverage is the sum of the overlaps in list order. Adding a nonnegative
    term never lowers a rounded sum, so coverage only grows as the threshold
    falls and the first level that passes is the answer.
    """
    hits = [
        (conf, ov)
        for conf, d in valid
        if (ov := _overlap(d.onset_s, d.offset_s, t.onset_s, t.offset_s)) > 0
    ]
    for level in sorted({conf for conf, _ in hits}, reverse=True):
        inter = sum(ov for conf, ov in hits if conf >= level)
        if inter / t.duration_s >= rho_gtc:
            return level
    return -math.inf


def _count_at_or_above(values: list[float], thresholds: np.ndarray) -> np.ndarray:
    return len(values) - np.searchsorted(np.sort(values), thresholds, side="left")


def _scored_counts(
    scored: Sequence[tuple[float, Event]],
    truth: Sequence[Event],
    rho_dtc: float,
    rho_gtc: float,
    thresholds: Sequence[float],
) -> list[dict[str, tuple[int, int]]]:
    """Per-class (TP, FP) at every threshold from one matching pass.

    The detections at threshold tau are those with confidence >= tau. A
    detection is valid when the sum of its overlaps with same-class truth in
    the same clip covers at least rho_dtc of it; that does not depend on the
    threshold. At tau the invalid detections at or above tau are the false
    positives, and the truth events whose ``_reach`` is >= tau the true
    positives.
    """
    dets_by: dict[tuple[str, str], list[tuple[float, Event]]] = {}
    truth_by: dict[tuple[str, str], list[Event]] = {}
    for conf, e in scored:
        dets_by.setdefault((e.clip_id, e.class_name), []).append((conf, e))
    for e in truth:
        truth_by.setdefault((e.clip_id, e.class_name), []).append(e)

    fp_confs: dict[str, list[float]] = {}
    reach: dict[str, list[float]] = {}
    for key in dets_by.keys() | truth_by.keys():
        cls = key[1]
        t_list = truth_by.get(key, [])
        valid = []
        for conf, d in dets_by.get(key, []):
            inter = sum(
                _overlap(d.onset_s, d.offset_s, t.onset_s, t.offset_s) for t in t_list
            )
            if inter / d.duration_s >= rho_dtc:
                valid.append((conf, d))
            else:
                fp_confs.setdefault(cls, []).append(conf)
        reach.setdefault(cls, []).extend(_reach(t, valid, rho_gtc) for t in t_list)

    levels = np.asarray(thresholds, dtype=np.float64)
    per_class = {
        cls: (
            _count_at_or_above(reach.get(cls, []), levels).tolist(),
            _count_at_or_above(fp_confs.get(cls, []), levels).tolist(),
        )
        for cls in sorted(reach.keys() | fp_confs.keys())
    }
    return [
        {cls: (tp[i], fp[i]) for cls, (tp, fp) in per_class.items()}
        for i in range(levels.size)
    ]


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
    if not truth.clip_durations:
        raise InvalidParameterError("truth must carry clip durations for eFPR")
    hours = sum(truth.clip_durations.values()) / 3600.0
    n_truth: dict[str, int] = {}
    for e in truth.events:
        n_truth[e.class_name] = n_truth.get(e.class_name, 0) + 1
    eval_classes = sorted(n_truth)

    if callable(detections):
        detections = [detections(t) for t in cfg.thresholds]
    detections = list(detections)
    is_scored = _is_scored(detections)
    events = (e for _, e in detections) if is_scored else (e for d in detections for e in d)
    clips = {e.clip_id for e in events}.union(e.clip_id for e in truth.events)
    missing = sorted(clips - truth.clip_durations.keys())
    if missing:
        named = ", ".join(map(repr, missing[:5]))
        more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
        raise InvalidParameterError(f"no duration for clip {named}{more}")
    if is_scored:
        per_threshold = _scored_counts(
            detections, truth.events, cfg.rho_dtc, cfg.rho_gtc, cfg.thresholds
        )
    else:
        per_threshold = (
            intersection_match(dets, truth.events, cfg.rho_dtc, cfg.rho_gtc)
            for dets in detections
        )

    points = []
    for counts in per_threshold:
        fp_total = sum(fp for _, fp in counts.values())
        efpr = fp_total / hours
        if eval_classes:
            tprs = np.array(
                [counts.get(c, (0, 0))[0] / n_truth[c] for c in eval_classes]
            )
            etpr = float(tprs.mean() - cfg.alpha_st * tprs.std())
        else:
            etpr = 0.0
        points.append((efpr, etpr))

    # Monotone upper staircase anchored at (0, 0).
    points.sort()
    curve = [(0.0, 0.0)]
    for efpr, etpr in points:
        if etpr > curve[-1][1]:
            if efpr == curve[-1][0]:
                curve[-1] = (efpr, etpr)
            else:
                curve.append((efpr, etpr))
    return curve


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
