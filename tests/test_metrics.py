"""Intersection matching, PSDS staircases, segment labels, partial AUC."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sedtk.cli import _segment_arrays
from sedtk.errors import DegenerateClassWarning, InvalidIntervalError, InvalidParameterError
from sedtk.metrics import (
    AnnotationSet,
    Event,
    PsdsConfig,
    _list_order_sums,
    _scored_counts,
    intersection_match,
    joint_score,
    mpauc_report,
    partial_roc_auc,
    psd_roc,
    psds,
    segmentize,
)
from sedtk.sebb import ScoreTrack, tune_csebb


def _brute_partial_auc(y, s, max_fpr):
    """O(n^2) oracle: enumerate every threshold, count, clip trapezoids."""
    y = np.asarray(y, dtype=int)
    s = np.asarray(s, dtype=np.float64)
    n_pos, n_neg = y.sum(), (1 - y).sum()
    pts = [(0.0, 0.0)]
    for thr in np.unique(s)[::-1]:
        pred = s >= thr
        tp = int((pred & (y == 1)).sum())
        fp = int((pred & (y == 0)).sum())
        pts.append((fp / n_neg, tp / n_pos))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 <= max_fpr:
            area += (x1 - x0) * (y0 + y1) / 2.0
        elif x0 < max_fpr:
            yc = y0 + (y1 - y0) * (max_fpr - x0) / (x1 - x0)
            area += (max_fpr - x0) * (y0 + yc) / 2.0
    min_area = 0.5 * max_fpr**2
    return 0.5 * (1.0 + (area - min_area) / (max_fpr - min_area))


def _swept(scored, truth, rho_dtc, rho_gtc, thresholds):
    """``_scored_counts`` as one {class: (TP, FP)} dict per threshold."""
    classes, tp, fp = _scored_counts(scored, truth, rho_dtc, rho_gtc, thresholds)
    return [dict(zip(classes, zip(t.tolist(), f.tolist()))) for t, f in zip(tp, fp)]


class TestEventType:
    def test_requires_positive_duration(self):
        with pytest.raises(InvalidIntervalError):
            Event("a", "dog", 2.0, 2.0)

    def test_annotation_set_checks_durations(self):
        with pytest.raises(InvalidIntervalError):
            AnnotationSet(
                events=[Event("a", "dog", 0.0, 11.0)],
                clip_durations={"a": 10.0},
            )


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("build, message", [
    (lambda: PsdsConfig(alpha_st=_NAN), "alpha_st must be finite and >= 0"),
    (lambda: PsdsConfig(alpha_st=_INF), "alpha_st must be finite and >= 0"),
    (lambda: PsdsConfig(alpha_st=-0.5), "alpha_st must be finite and >= 0"),
    (lambda: PsdsConfig(e_max=_INF), "e_max must be finite and > 0"),
    (lambda: PsdsConfig(thresholds=(0.5, _NAN)), "thresholds must lie in [0, 1]"),
    (lambda: PsdsConfig(thresholds=(-0.1, 0.5)), "thresholds must lie in [0, 1]"),
    (lambda: PsdsConfig(thresholds=(0.5, 1.5)), "thresholds must lie in [0, 1]"),
    (lambda: AnnotationSet(clip_durations={"a": 10.0, "b": _INF}),
     "duration of 'b' must be finite and > 0"),
], ids=["alpha_st-nan", "alpha_st-inf", "alpha_st-negative", "e_max-inf", "threshold-nan",
        "threshold-negative", "threshold-above-1", "duration-inf"])
def test_psds_inputs_must_be_finite_and_in_range(build, message):
    # Accepted, each gave a PSDS of 0.0 or nan, or made every eFPR 0.
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        build()


class TestIntersectionMatch:
    def test_exact_match(self):
        truth = [Event("a", "dog", 1.0, 2.0)]
        for rho in (0.1, 0.7, 1.0):
            counts = intersection_match(truth, truth, rho, rho)
            assert counts["dog"] == (1, 0)

    def test_disjoint_detection(self):
        dets = [Event("a", "dog", 5.0, 6.0)]
        truth = [Event("a", "dog", 1.0, 2.0)]
        assert intersection_match(dets, truth)["dog"] == (0, 1)

    def test_sixty_percent_equal_length(self):
        # Interval-intersection arithmetic: overlap 6 of 10 fails rho=0.7
        # on the detection side, so it is an FP and the truth stays missed.
        dets = [Event("a", "dog", 4.0, 14.0)]
        truth = [Event("a", "dog", 0.0, 10.0)]
        assert intersection_match(dets, truth, 0.7, 0.7)["dog"] == (0, 1)

    def test_fragmented_detections_can_cover_truth(self):
        dets = [Event("a", "dog", 0.0, 4.0), Event("a", "dog", 4.5, 9.5)]
        truth = [Event("a", "dog", 0.0, 10.0)]
        # both dets fully inside truth (DTC ok); coverage 9/10 >= 0.7
        assert intersection_match(dets, truth, 0.7, 0.7)["dog"] == (1, 0)

    def test_classes_and_clips_are_separated(self):
        dets = [Event("a", "cat", 1.0, 2.0), Event("b", "dog", 1.0, 2.0)]
        truth = [Event("a", "dog", 1.0, 2.0)]
        counts = intersection_match(dets, truth)
        assert counts["dog"] == (0, 1)
        assert counts["cat"] == (0, 1)

    # Overlaps are summed, not merged into a union; both forms share that rule.
    def test_duplicated_detection_adds_its_overlap_twice(self):
        truth = [Event("a", "dog", 0.0, 10.0)]
        det = Event("a", "dog", 0.0, 4.0)
        # coverage 4 + 4 of 10 passes rho_gtc=0.7; the union, 4 of 10, would not
        assert intersection_match([det, det], truth, 0.7, 0.7)["dog"] == (1, 0)
        assert intersection_match([det], truth, 0.7, 0.7)["dog"] == (0, 0)
        # scored: both copies count at 0.3, only the 0.9 copy at 0.5
        counts = _swept([(0.9, det), (0.4, det)], truth, 0.7, 0.7, (0.3, 0.5))
        assert counts == [{"dog": (1, 0)}, {"dog": (0, 0)}]

    def test_overlapping_truth_events_add_to_a_detection_twice(self):
        truth = [Event("a", "dog", 0.0, 4.0), Event("a", "dog", 0.0, 4.0)]
        det = Event("a", "dog", 0.0, 10.0)
        # intersection 4 + 4 of 10 passes rho_dtc=0.7; the union, 4 of 10, would not
        assert intersection_match([det], truth, 0.7, 0.7)["dog"] == (2, 0)
        assert intersection_match([det], truth[:1], 0.7, 0.7)["dog"] == (0, 1)
        counts = _swept([(0.6, det)], truth, 0.7, 0.7, (0.5, 0.7))
        assert counts == [{"dog": (2, 0)}, {"dog": (0, 0)}]


class TestPsdRoc:
    TRUTH = AnnotationSet(
        events=[
            Event("a", "dog", 0.0, 10.0),
            Event("a", "dog", 20.0, 30.0),
            Event("a", "cat", 40.0, 50.0),
            Event("a", "cat", 60.0, 70.0),
        ],
        clip_durations={"a": 3600.0},
    )

    def test_perfect_curve_contains_0_1(self):
        perfect = list(self.TRUTH.events)
        curve = psd_roc([perfect] * 3, self.TRUTH)
        assert (0.0, 1.0) in curve
        assert psds(curve) == 1.0

    def test_empty_detections(self):
        curve = psd_roc([[]], self.TRUTH)
        assert curve == [(0.0, 0.0)]
        assert psds(curve) == 0.0

    def test_list_form_gives_one_point_per_list_whatever_the_thresholds(self):
        dogs = [e for e in self.TRUTH.events if e.class_name == "dog"]
        stray = [Event("a", "cat", 500.0, 510.0)]
        lists = [dogs + stray, list(self.TRUTH.events)]
        curves = [
            psd_roc(lists, self.TRUTH, PsdsConfig(thresholds=thresholds))
            for thresholds in [(0.5,), (0.1, 0.2, 0.3), PsdsConfig().thresholds]
        ]
        assert curves[0] == curves[1] == curves[2] == [(0.0, 1.0)]
        # one list under 50 thresholds is still one operating point: TPR 0.5 at 1 FP/h
        for thresholds in [(0.5,), PsdsConfig().thresholds]:
            cfg = PsdsConfig(alpha_st=0.0, thresholds=thresholds)
            assert psd_roc([dogs + stray], self.TRUTH, cfg) == [(0.0, 0.0), (1.0, 0.5)]

    def test_two_class_three_threshold_staircase(self):
        # Hand enumeration. Detections and confidences:
        #   d1 dog [0,10)    conf 0.9  (matches truth)
        #   d2 dog [20,30)   conf 0.6  (matches truth)
        #   d3 dog [100,110) conf 0.55 (disjoint FP)
        #   d4 cat [40,50)   conf 0.7  (matches truth)
        #   d5 cat [200,210) conf 0.3  (disjoint FP)
        # tau=0.2: TPRs (1, 0.5), 2 FP in 1 h  -> (2.0, 0.75-0.25=0.5)
        # tau=0.5: TPRs (1, 0.5), 1 FP        -> (1.0, 0.5)
        # tau=0.8: TPRs (0.5, 0), 0 FP        -> (0.0, 0.25-0.25=0.0)
        # staircase: [(0,0), (1,0.5)]; psds = 0.5*(100-1)/100 = 0.495
        dets = [
            (0.9, Event("a", "dog", 0.0, 10.0)),
            (0.6, Event("a", "dog", 20.0, 30.0)),
            (0.55, Event("a", "dog", 100.0, 110.0)),
            (0.7, Event("a", "cat", 40.0, 50.0)),
            (0.3, Event("a", "cat", 200.0, 210.0)),
        ]
        cfg = PsdsConfig(thresholds=(0.2, 0.5, 0.8))
        curve = psd_roc(
            lambda tau: [e for conf, e in dets if conf >= tau], self.TRUTH, cfg
        )
        assert curve == [(0.0, 0.0), (1.0, 0.5)]
        assert psds(curve, cfg) == pytest.approx(0.495, abs=1e-12)

    def test_operating_point_bounds(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            truth_events = [
                Event("a", "dog", float(o), float(o) + 1.0)
                for o in rng.uniform(0, 100, size=3)
            ]
            det_events = [
                Event("a", "dog", float(o), float(o) + 1.0)
                for o in rng.uniform(0, 100, size=4)
            ]
            truth = AnnotationSet(events=truth_events, clip_durations={"a": 200.0})
            curve = psd_roc([det_events], truth)
            for efpr, etpr in curve:
                assert etpr <= 1.0
                assert efpr >= 0.0 and np.isfinite(efpr)

    @pytest.mark.parametrize("durations, message", [
        ({}, "truth must carry clip durations for eFPR"),  # the truth has no durations
        ({"a": 4.0}, "no duration for clip 'z'"),  # a detected clip has none
    ])
    @pytest.mark.parametrize("form", ["lists", "callable", "scored", "tune_csebb"])
    def test_missing_durations_are_refused_alike_on_every_path(self, form, durations, message):
        truth = AnnotationSet(events=[Event("a", "dog", 1.2, 2.8)], clip_durations=durations)
        dets = [Event("a", "dog", 1.2, 2.8), Event("z", "dog", 1.2, 2.8)]
        scores = np.zeros((1, 200))
        scores[0, 60:140] = 0.9  # one box at 1.2-2.8 s in each track
        tracks = [ScoreTrack(scores, 0.02, ("dog",), clip) for clip in "az"]
        run = {
            "lists": lambda: psd_roc([dets], truth),
            "callable": lambda: psd_roc(lambda tau: dets, truth),
            "scored": lambda: psd_roc([(0.9, e) for e in dets], truth),
            "tune_csebb": lambda: tune_csebb(tracks, truth, {}),
        }[form]
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            run()

    @pytest.mark.parametrize("form", ["lists", "scored"])
    def test_clips_without_a_duration_are_named(self, form):
        truth = AnnotationSet(
            events=[Event(c, "dog", 0.0, 1.0) for c in "agfed"],
            clip_durations={"a": 10.0},
        )
        dets = [Event("c", "dog", 0.0, 1.0), Event("b", "dog", 0.0, 1.0)]
        detections = [dets] if form == "lists" else [(0.5, e) for e in dets]
        with pytest.raises(
            InvalidParameterError, match="no duration for clip 'b', 'c', 'd', 'e', 'f' and 1 more$"
        ):
            psd_roc(detections, truth)


_THRESHOLDS = (0.2, 0.4, 0.6, 0.8)
_DEFAULT_THRESHOLDS = PsdsConfig().thresholds
_DURATIONS = {"a": 30.0, "b": 45.0, "c": 60.0}


def _event(classes):
    # Half-second grid onsets give exact ties and shared edges; free floats
    # give overlap sums that round.
    onset = st.one_of(st.integers(0, 40).map(lambda k: k * 0.5), st.floats(0.0, 20.0))
    length = st.one_of(st.integers(1, 12).map(lambda k: k * 0.5), st.floats(0.05, 6.0))
    return st.builds(
        lambda clip, cls, on, dur: Event(clip, cls, on, on + dur),
        st.sampled_from(sorted(_DURATIONS)), st.sampled_from(classes), onset, length,
    )


_CONFIDENCE = st.one_of(
    st.sampled_from(_THRESHOLDS + _DEFAULT_THRESHOLDS[:3] + (0.0, 1.0)),
    st.floats(0.0, 1.0),
)


@st.composite
def _scored_case(draw):
    truth_events = draw(st.lists(_event(("dog", "cat")), max_size=8))
    # "bird" has detections but no truth: every bird detection is an FP.
    scored = draw(st.lists(st.tuples(_CONFIDENCE, _event(("dog", "cat", "bird"))), max_size=10))
    copies = truth_events + [e for _, e in scored]
    if copies:  # exact copies of truth and duplicate detections
        scored += draw(st.lists(st.tuples(_CONFIDENCE, st.sampled_from(copies)), max_size=6))
    scored = draw(st.permutations(scored))
    cfg = PsdsConfig(
        rho_dtc=draw(st.sampled_from([0.5, 0.7, 1.0])),
        rho_gtc=draw(st.sampled_from([0.3, 0.7, 1.0])),
        alpha_st=draw(st.sampled_from([0.0, 1.0])),
        thresholds=draw(st.sampled_from([_THRESHOLDS, _DEFAULT_THRESHOLDS])),
    )
    return truth_events, scored, cfg


def _parent_intersection_match(dets, truth, rho_dtc, rho_gtc):
    """The per-list matcher that preceded the shared engine, kept as the oracle."""
    classes = sorted({e.class_name for e in dets} | {e.class_name for e in truth})
    dets_by, truth_by = {}, {}
    for e in dets:
        dets_by.setdefault((e.clip_id, e.class_name), []).append(e)
    for e in truth:
        truth_by.setdefault((e.clip_id, e.class_name), []).append(e)

    def overlap(a, b):
        return max(0.0, min(a.offset_s, b.offset_s) - max(a.onset_s, b.onset_s))

    def covered(e, others):
        # Left to right in list order; the built-in sum() compensates from Python 3.12.
        total = 0.0
        for o in others:
            total += overlap(e, o)
        return total

    counts = {}
    for cls in classes:
        tp = fp = 0
        clips = {c for c, k in dets_by if k == cls} | {c for c, k in truth_by if k == cls}
        for clip in sorted(clips):
            d_list = dets_by.get((clip, cls), [])
            t_list = truth_by.get((clip, cls), [])
            valid = []
            for d in d_list:
                if covered(d, t_list) / (d.offset_s - d.onset_s) >= rho_dtc:
                    valid.append(d)
                else:
                    fp += 1
            for t in t_list:
                if covered(t, valid) / (t.offset_s - t.onset_s) >= rho_gtc:
                    tp += 1
        counts[cls] = (tp, fp)
    return counts


def _nonzero(counts):
    return {cls: n for cls, n in counts.items() if n != (0, 0)}


# Nine spans of 0.01-grid lengths totalling 0.70: added in list order they sum
# to 0.7, pairwise (np.add.reduce past 8 terms) to 0.6999999999999998.
_NINE_SPANS = [(0.25, 0.36), (0.94, 0.98), (0.1, 0.12), (0.67, 0.83), (0.14, 0.34),
               (0.95, 0.96), (0.8, 0.88), (0.15, 0.17), (0.8, 0.86)]


@settings(max_examples=150, deadline=None)
@given(_scored_case())
@example(([Event("a", "dog", 1.0, 2.0)], [], PsdsConfig()))
@example(([Event("a", "dog", 1.0, 2.0)], [(0.5, Event("a", "dog", 1.0, 2.0))],
          PsdsConfig(thresholds=(0.5,))))
# Coverage 0.2 + 0.3999999999999999 + 0.09999999999999998 sums to just under
# 0.7 in list order but to 0.7 in ascending order: the order is part of the rule.
@example(([Event("a", "dog", 0.0, 1.0)],
          [(0.5, Event("a", "dog", on, off)) for on, off in
           [(0.0, 0.2), (0.6000000000000001, 1.0), (0.7000000000000001, 0.8)]],
          PsdsConfig(thresholds=(0.5,))))
# gtc: nine detections cover 0.7 of one truth event in list order.
@example(([Event("a", "dog", 0.0, 1.0)],
          [(0.5, Event("a", "dog", on, off)) for on, off in _NINE_SPANS],
          PsdsConfig(thresholds=(0.5,))))
# dtc: one detection overlaps nine truth events for 0.7 of itself in list order.
@example(([Event("a", "dog", on, off) for on, off in _NINE_SPANS],
          [(0.5, Event("a", "dog", 0.0, 1.0))],
          PsdsConfig(thresholds=(0.5,))))
def test_scored_sweep_equals_per_threshold_matching(case):
    truth_events, scored, cfg = case
    rho = (cfg.rho_dtc, cfg.rho_gtc)
    per_tau = [[e for c, e in scored if c >= tau] for tau in cfg.thresholds]
    want = [_parent_intersection_match(dets, truth_events, *rho) for dets in per_tau]
    assert [intersection_match(dets, truth_events, *rho) for dets in per_tau] == want
    # The sweep also lists a class whose detections all fall below tau, as (0, 0).
    swept = _swept(scored, truth_events, *rho, cfg.thresholds)
    assert [_nonzero(c) for c in swept] == [_nonzero(c) for c in want]
    truth = AnnotationSet(events=truth_events, clip_durations=_DURATIONS)
    assert psd_roc(scored, truth, cfg) == psd_roc(per_tau, truth, cfg)


def test_nine_span_examples_need_list_order_sums():
    overlaps = [off - on for on, off in _NINE_SPANS]
    in_order = 0.0
    for ov in overlaps:
        in_order += ov
    assert in_order >= 0.7 > np.add.reduce(np.array(overlaps))
    truth = [Event("a", "dog", 0.0, 1.0)]
    dets = [Event("a", "dog", on, off) for on, off in _NINE_SPANS]
    assert intersection_match(dets, truth) == {"dog": (1, 0)}
    assert intersection_match(truth, dets) == {"dog": (9, 0)}


def test_many_hits_on_one_truth_event_stay_in_bounded_memory():
    # 3000 valid detections inside one 10 s truth event: the (levels, hits)
    # coverage of that event has 3000 x 3000 cells.
    rng = np.random.default_rng(11)
    truth = [Event("a", "dog", 0.0, 10.0)]
    onsets = rng.uniform(0.0, 9.99, size=3000)
    lengths = rng.uniform(0.001, 0.005, size=3000)
    confs = np.round(rng.uniform(size=3000), 3)  # ties among mixed confidences
    scored = [
        (float(c), Event("a", "dog", float(on), float(on + ln)))
        for c, on, ln in zip(confs, onsets, lengths)
    ]
    thresholds = (0.05, 0.2, 0.25, 0.3, 0.5, 0.9)
    tracemalloc.start()
    try:
        swept = _swept(scored, truth, 0.7, 0.7, thresholds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    want = [
        _parent_intersection_match([e for c, e in scored if c >= tau], truth, 0.7, 0.7)
        for tau in thresholds
    ]
    assert swept == want
    assert {tp for counts in want for tp, _ in counts.values()} == {0, 1}


def _blocked_list_order_sums(terms, starts, lengths, confs=None, levels=None,
                             block_cells=1 << 17):
    """The former ``_list_order_sums``: rows laid out as a zero-padded matrix and
    summed by a cumsum along each row, a block of about ``block_cells`` cells at
    a time, with the running sums carried in as the block's first column."""
    order = np.argsort(-lengths, kind="stable")  # open rows form a prefix
    starts, lengths = starts[order], lengths[order]
    if levels is not None:
        levels = levels[order, None]
    sums = np.zeros(lengths.size)
    width = int(lengths[0]) if lengths.size else 0
    col = 0
    while col < width:
        n = int(np.count_nonzero(lengths > col))
        cols = np.arange(col, min(width, col + max(1, block_cells // n)))
        live = cols < lengths[:n, None]
        idx = np.where(live, starts[:n, None] + cols, 0)
        if levels is not None:
            live &= confs[idx] >= levels[:n]
        block = np.where(live, terms[idx], 0.0)
        sums[:n] = np.cumsum(np.concatenate([sums[:n, None], block], axis=1), axis=1)[:, -1]
        col += cols.size
    out = np.empty_like(sums)
    out[order] = sums
    return out


_SUM_LEVELS = [0.1, 0.25, 0.5, 0.75, 0.9]


@st.composite
def _sum_rows(draw):
    """Overlap terms with their confidences, and rows of up to about 400 of them."""
    n_terms = draw(st.integers(0, 400))
    terms = draw(arrays(np.float64, n_terms, elements=st.one_of(
        st.floats(1e-6, 100.0), st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0])
    )))
    confs = draw(arrays(np.float64, n_terms, elements=st.sampled_from(_SUM_LEVELS)))
    row = st.integers(0, n_terms).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(0, n_terms - a))
    )
    rows = draw(st.lists(row, max_size=12))
    starts = np.array([a for a, _ in rows], dtype=np.int64)
    lengths = np.array([n for _, n in rows], dtype=np.int64)
    levels = draw(st.none() | arrays(np.float64, len(rows), elements=st.sampled_from(_SUM_LEVELS)))
    return terms, starts, lengths, confs, levels


@settings(max_examples=200, deadline=None)
@given(_sum_rows(), st.sampled_from([1, 7, 1 << 17]))
def test_column_pass_adds_as_the_blocked_cumsum_did(case, block_cells):
    terms, starts, lengths, confs, levels = case
    want = _blocked_list_order_sums(terms, starts, lengths, confs, levels, block_cells)
    got = _list_order_sums(terms, starts, lengths, confs, levels)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _oracle_curve(per_tau, truth, cfg):
    """Operating points one threshold at a time from 1-D TPR arrays, as a staircase."""
    hours = sum(truth.clip_durations.values()) / 3600.0
    classes = sorted({e.class_name for e in truth.events})
    n_truth = [sum(e.class_name == c for e in truth.events) for c in classes]
    points = []
    for dets in per_tau:
        counts = _parent_intersection_match(dets, truth.events, cfg.rho_dtc, cfg.rho_gtc)
        tprs = np.array([counts[c][0] / n for c, n in zip(classes, n_truth)])
        etpr = float(tprs.mean() - cfg.alpha_st * tprs.std())
        points.append((sum(fp for _, fp in counts.values()) / hours, etpr))
    curve = [(0.0, 0.0)]
    for efpr, etpr in sorted(points):
        if etpr > curve[-1][1]:
            if efpr == curve[-1][0]:
                curve[-1] = (efpr, etpr)
            else:
                curve.append((efpr, etpr))
    return curve


@pytest.mark.parametrize("alpha_st", [0.0, 1.0])
@pytest.mark.parametrize("n_classes", [1, 8, 9, 17])
def test_operating_points_equal_one_threshold_at_a_time(n_classes, alpha_st):
    # Classes with 1-7 truth events each give TPRs whose mean and std round;
    # past 8 classes numpy sums them pairwise.
    rng = np.random.default_rng(n_classes)
    cfg = PsdsConfig(alpha_st=alpha_st)
    for _ in range(4):
        truth_events, scored = [], []
        for k in range(n_classes):
            cls = f"c{k:02d}"
            for on in rng.choice(300, size=int(rng.integers(1, 8)), replace=False):
                truth_events.append(Event("a", cls, 10.0 * on, 10.0 * on + 5.0))
                if rng.random() < 0.8:
                    scored.append((float(rng.random()), Event("a", cls, 10.0 * on, 10.0 * on + 4.0)))
            for on in rng.uniform(3000.0, 3500.0, size=int(rng.integers(0, 4))):
                scored.append((float(rng.random()), Event("a", cls, on, on + 2.0)))
        truth = AnnotationSet(events=truth_events, clip_durations={"a": 3600.0})
        per_tau = [[e for c, e in scored if c >= tau] for tau in cfg.thresholds]
        want = _oracle_curve(per_tau, truth, cfg)
        assert psd_roc(scored, truth, cfg) == want
        assert psd_roc(per_tau, truth, cfg) == want


class TestPsds:
    def test_toy_staircase_area(self):
        assert psds([(0.0, 0.5), (50.0, 0.8)]) == pytest.approx(0.65, abs=1e-12)

    def test_points_beyond_emax_are_clipped(self):
        assert psds([(0.0, 0.5), (150.0, 1.0)]) == pytest.approx(0.5, abs=1e-12)

    def test_monotonicity_two_class_fixtures(self):
        # Duplicate-of-truth never decreases, disjoint FP never increases.
        rng = np.random.default_rng(1)
        for trial in range(15):
            events, dets = [], []
            for cls in ("dog", "cat"):
                for _ in range(int(rng.integers(1, 4))):
                    on = float(rng.uniform(0, 250))
                    events.append(Event("a", cls, on, on + float(rng.uniform(1, 5))))
                for _ in range(int(rng.integers(0, 4))):
                    on = float(rng.uniform(0, 250))
                    dets.append((rng.uniform(), Event("a", cls, on, on + float(rng.uniform(1, 5)))))
            truth = AnnotationSet(events=events, clip_durations={"a": 400.0})
            cfg = PsdsConfig(thresholds=(0.25, 0.5, 0.75))

            def value(det_list):
                return psds(
                    psd_roc(lambda tau: [e for c, e in det_list if c >= tau], truth, cfg),
                    cfg,
                )

            base = value(dets)
            dup = dets + [(1.0, events[int(rng.integers(len(events)))])]
            assert value(dup) >= base - 1e-12
            spur_on = 300.0 + float(rng.uniform(0, 50))
            spur = dets + [(1.0, Event("a", "dog", spur_on, spur_on + 2.0))]
            assert value(spur) <= base + 1e-12


class TestSegmentize:
    def test_soft_threshold_boundary(self):
        labels = segmentize({"a": np.array([[0.5], [0.49]])}, classes=["dog"])
        assert labels["a"].dtype == bool
        assert labels["a"][:, 0].tolist() == [True, False]

    def test_clips_come_out_sorted(self):
        soft = {"b": np.zeros((2, 2)), "a": np.array([[1.0, 0.0]] + [[0.0, 0.0]] * 4)}
        labels = segmentize(soft, classes=["dog", "cat"])
        assert list(labels) == ["a", "b"]
        assert labels["a"].shape == (5, 2) and labels["b"].shape == (2, 2)
        assert labels["a"].sum() == 1 and labels["a"][0, 0]

    def test_soft_labels_need_one_column_per_class(self):
        with pytest.raises(InvalidParameterError):
            segmentize({"a": np.zeros((3, 2))}, ["dog"])

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
    def test_soft_label_outside_unit_interval_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            segmentize({"a": np.array([[0.2], [bad]])}, ["dog"])


class TestPartialAuc:
    def test_perfect_ranking(self):
        y = np.array([0] * 20 + [1] * 20)
        s = np.concatenate([np.linspace(0, 0.4, 20), np.linspace(0.6, 1, 20)])
        assert partial_roc_auc(y, s) == pytest.approx(1.0)

    def test_constant_scores_are_chance(self):
        y = np.array([0, 1] * 25)
        assert partial_roc_auc(y, np.full(50, 0.7)) == pytest.approx(0.5)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            n = int(rng.integers(20, 200))
            y = rng.integers(0, 2, size=n)
            if y.all() or not y.any():
                y[0], y[-1] = 0, 1
            s = rng.uniform(size=n)
            got = partial_roc_auc(y, s, max_fpr=0.1)
            want = _brute_partial_auc(y, s, max_fpr=0.1)
            assert got == pytest.approx(want, abs=1e-9)

    def test_ties_in_scores(self):
        y = np.array([0, 0, 1, 1, 0, 1])
        s = np.array([0.2, 0.5, 0.5, 0.9, 0.9, 0.9])
        assert partial_roc_auc(y, s, 0.5) == pytest.approx(
            _brute_partial_auc(y, s, 0.5), abs=1e-12
        )

    def test_rank_invariance(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, size=120)
        y[:2] = [0, 1]
        s = rng.uniform(size=120)
        base = partial_roc_auc(y, s)
        for transform in (lambda v: 2 * v + 1, np.exp, lambda v: v**3):
            assert partial_roc_auc(y, transform(s)) == pytest.approx(base, abs=1e-12)

    def test_degenerate_input(self):
        with pytest.raises(InvalidParameterError):
            partial_roc_auc(np.ones(5), np.linspace(0, 1, 5))


class TestMpauc:
    def _instance(self, seed=0, n_cells=40, classes=("a", "b", "c")):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(size=(n_cells, len(classes)))
        labels = rng.integers(0, 2, size=scores.shape).astype(bool)
        labels[0], labels[1] = False, True  # force both polarities per class
        return scores, labels, list(classes)

    def test_macro_is_mean_of_per_class(self):
        scores, labels, classes = self._instance()
        report = mpauc_report(scores, labels, classes)
        assert report["mpauc"] == pytest.approx(
            np.mean(list(report["per_class"].values()))
        )

    def test_against_per_class_oracle(self):
        scores, labels, classes = self._instance(seed=9)
        report = mpauc_report(scores, labels, classes)
        for k, cls in enumerate(classes):
            assert report["per_class"][cls] == pytest.approx(
                _brute_partial_auc(labels[:, k], scores[:, k], 0.1), abs=1e-9
            )

    def test_degenerate_class_excluded_with_warning(self):
        scores, labels, classes = self._instance()
        labels[:, 2] = True
        with pytest.warns(DegenerateClassWarning):
            report = mpauc_report(scores, labels, classes)
        assert report["excluded"] == ["c"]
        assert set(report["per_class"]) == {"a", "b"}

    def test_cell_order_does_not_change_values(self):
        scores, labels, classes = self._instance(seed=5, n_cells=200)
        scores = np.round(scores, 1)  # many tied scores
        report = mpauc_report(scores, labels, classes, max_fpr=0.3)
        rng = np.random.default_rng(6)
        for _ in range(5):
            order = rng.permutation(len(scores))
            assert mpauc_report(scores[order], labels[order], classes, max_fpr=0.3) == report

    @pytest.mark.parametrize(
        "change",
        [
            lambda s, y, c: (s, y[:-1], c),  # one cell without a label
            lambda s, y, c: (s[:, :2], y[:, :2], c),  # three classes, two columns
            lambda s, y, c: (s[:, 0], y[:, 0], c[:1]),  # 1-D
            lambda s, y, c: (s, y.astype(float), c),  # labels not bool
        ],
    )
    def test_shape_mismatch_rejected(self, change):
        scores, labels, classes = self._instance()
        with pytest.raises(InvalidParameterError):
            mpauc_report(*change(scores, labels, classes))


def _parent_mpauc(score_tracks, truth_tracks, max_fpr=0.1):
    """The per-cell dict path that ``evaluate --mpauc`` used before the
    array path: the CLI's dicts, soft ``segmentize`` and ``mpauc_report``."""
    seg_scores = {}
    for tr in score_tracks:
        for k, cls in enumerate(tr.class_names):
            for t in range(tr.n_frames):
                seg_scores[(tr.clip_id, t, cls)] = float(tr.scores[k, t])
    soft, durations = {}, {}
    for tr in truth_tracks:
        durations[tr.clip_id] = tr.n_frames * tr.hop_seconds
        for k, cls in enumerate(tr.class_names):
            for t in range(tr.n_frames):
                soft[(tr.clip_id, t, cls)] = float(tr.scores[k, t])
    segment_s = truth_tracks[0].hop_seconds
    labels = {}
    for clip, dur in sorted(durations.items()):
        for seg in range(max(1, math.ceil(dur / segment_s - 1e-12))):
            for cls in truth_tracks[0].class_names:
                labels[(clip, seg, cls)] = 0
    for key, v in soft.items():
        if key in labels and v >= 0.5:
            labels[key] = 1
    missing = [k for k in seg_scores if k not in labels]
    if missing:
        raise InvalidParameterError(
            f"{len(missing)} scored segments lack labels, e.g. {missing[0]}"
        )
    per_class, excluded = {}, []
    for cls in score_tracks[0].class_names:
        keys = sorted(k for k in seg_scores if k[2] == cls)
        y = np.array([labels[k] for k in keys])
        s = np.array([seg_scores[k] for k in keys])
        if y.size == 0 or y.all() or not y.any():
            excluded.append(cls)
            warnings.warn(
                f"class {cls!r} lacks positives or negatives; excluded",
                DegenerateClassWarning,
            )
            continue
        per_class[cls] = partial_roc_auc(y, s, max_fpr)
    if not per_class:
        raise InvalidParameterError("no class has both positives and negatives")
    macro = float(np.mean(list(per_class.values())))
    return {"mpauc": macro, "per_class": per_class, "excluded": excluded}


def _array_mpauc(score_tracks, truth_tracks, max_fpr=0.1):
    scores, labels, classes = _segment_arrays(score_tracks, truth_tracks, "s.csv", "t.csv")
    return mpauc_report(scores, labels, classes, max_fpr)


def _outcome(path, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = path(*args)
        except InvalidParameterError as exc:
            result = ("error", str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


# Ties, the 0.5 hardening edge, and free floats.
_SEGMENT_VALUE = st.one_of(
    st.sampled_from([0.0, 0.25, 0.49, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)
)


@st.composite
def _segment_tables(draw):
    truth_classes = draw(
        st.lists(st.sampled_from(["dog", "cat", "bird", "lion"]), min_size=1, max_size=4,
                 unique=True)
    )
    score_classes = draw(st.permutations(truth_classes))
    score_classes = score_classes[: draw(st.integers(1, len(score_classes)))]
    clips = draw(st.permutations([f"clip{i}" for i in range(draw(st.integers(1, 5)))]))
    hop = draw(st.sampled_from([1.0, 0.5, 0.1]))
    flat = draw(st.sampled_from([None, None, 0.0, 1.0]))  # a degenerate truth column
    flat_class = draw(st.sampled_from(truth_classes))
    score_tracks, truth_tracks = [], []
    for clip in clips:
        n = draw(st.integers(1, 20))
        truth = np.array(draw(st.lists(
            st.lists(_SEGMENT_VALUE, min_size=n, max_size=n),
            min_size=len(truth_classes), max_size=len(truth_classes),
        )))
        if flat is not None:
            truth[truth_classes.index(flat_class)] = flat
        scores = draw(st.lists(
            st.lists(_SEGMENT_VALUE, min_size=n, max_size=n),
            min_size=len(score_classes), max_size=len(score_classes),
        ))
        truth_tracks.append(ScoreTrack(truth, hop, tuple(truth_classes), clip))
        score_tracks.append(ScoreTrack(np.array(scores), hop, tuple(score_classes), clip))
    score_tracks = draw(st.permutations(score_tracks))
    return score_tracks, truth_tracks, draw(st.sampled_from([0.1, 0.3, 1.0]))


@settings(max_examples=200, deadline=None)
@given(_segment_tables())
def test_array_path_equals_parent_dict_path(case):
    assert _outcome(_array_mpauc, *case) == _outcome(_parent_mpauc, *case)


class TestJointScore:
    def test_reported_sums(self):
        assert joint_score(0.604, 0.739) == 1.343
        assert joint_score(0.549, 0.721) == 1.270

    def test_zero(self):
        assert joint_score(0.0, 0.0) == 0.0

    def test_range_check(self):
        with pytest.raises(InvalidParameterError):
            joint_score(1.2, 0.5)
