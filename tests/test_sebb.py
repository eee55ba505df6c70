"""Change-point bounding boxes: delta filter, candidates, merging, tuning."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import sedtk.sebb
from sedtk.errors import (
    ConfigInvalidError,
    EmptyGridError,
    InvalidFilterLenError,
    InvalidParameterError,
    ScoreOutOfRangeError,
    UnknownClassError,
    UnsortedInputError,
)
from sedtk.metrics import AnnotationSet, Event, PsdsConfig, _match_counts, psd_roc, psds
from sedtk.sebb import (
    SEBB,
    CsebbConfig,
    ScoreTrack,
    _boundaries,
    delta_scores,
    detect_candidates,
    detect_sebbs,
    merge_gaps,
    threshold_events,
    tune_csebb,
)

HOP = 0.02
LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _track(rows, class_names=("dog",), clip_id="clip0", hop=HOP):
    return ScoreTrack(
        scores=np.atleast_2d(np.asarray(rows, dtype=np.float64)),
        hop_seconds=hop,
        class_names=class_names,
        clip_id=clip_id,
    )


def _loop_delta(row, filter_len):
    """Naive windowed-mean oracle with index clamping."""
    T = len(row)
    h = (filter_len - 1) // 2
    out = np.zeros(T)
    for t in range(T):
        fwd = [row[min(max(i, 0), T - 1)] for i in range(t, t + h + 1)]
        bwd = [row[min(max(i, 0), T - 1)] for i in range(t - h, t)]
        out[t] = sum(fwd) / len(fwd) - sum(bwd) / len(bwd)
    return out


class TestDeltaScores:
    def test_constant_signal_is_flat(self):
        delta = delta_scores(np.full(50, 0.7), 21)
        np.testing.assert_allclose(delta, 0.0, atol=1e-12)

    def test_step_response(self):
        t0 = 30
        step = np.concatenate([np.zeros(t0), np.ones(30)])
        delta = delta_scores(step, 3)
        assert int(np.argmax(delta)) in (t0 - 1, t0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        row = rng.uniform(size=80)
        np.testing.assert_allclose(
            delta_scores(row, 5), _loop_delta(row, 5), atol=1e-6
        )

    @pytest.mark.parametrize("filter_len", [3, 7, 21])
    def test_oracle_various_lengths(self, filter_len):
        rng = np.random.default_rng(filter_len)
        row = rng.uniform(size=60)
        np.testing.assert_allclose(
            delta_scores(row, filter_len), _loop_delta(row, filter_len), atol=1e-6
        )

    @pytest.mark.parametrize("shape", [(1,), (3,), (60,), (4, 1), (4, 3), (2, 3, 40)])
    @pytest.mark.parametrize("filter_len", [3, 9, 21])
    def test_edge_padding_equals_np_pad(self, shape, filter_len):
        # T = 1 and T < h pad a row with more copies of its edges than it has frames.
        rows = np.random.default_rng(len(shape) * filter_len).uniform(size=shape)
        h = (filter_len - 1) // 2
        padded = np.pad(rows, [(0, 0)] * (rows.ndim - 1) + [(h, h)], mode="edge")
        cs = np.concatenate([np.zeros(shape[:-1] + (1,)), np.cumsum(padded, axis=-1)], axis=-1)
        n = shape[-1]
        fwd = (cs[..., 2 * h + 1 : 2 * h + 1 + n] - cs[..., h : h + n]) / (h + 1)
        bwd = (cs[..., h : h + n] - cs[..., :n]) / h
        assert np.array_equal(delta_scores(rows, filter_len), fwd - bwd)

    def test_length_preserved(self):
        assert delta_scores(np.zeros(17), 9).shape == (17,)

    def test_stack_of_rows_equals_one_row_at_a_time(self):
        rows = np.random.default_rng(3).uniform(size=(2, 3, 40))
        for fl in (3, 11, 41):
            stacked = delta_scores(rows, fl)
            assert stacked.shape == rows.shape
            for idx in np.ndindex(rows.shape[:-1]):
                assert np.array_equal(stacked[idx], delta_scores(rows[idx], fl))

    def test_empty_row_rejected(self):
        for bad in (np.zeros(0), np.zeros((3, 0)), np.float64(0.5)):
            with pytest.raises(InvalidParameterError):
                delta_scores(bad, 5)

    def test_reversal_antisymmetry_on_ramps(self):
        # Exact antisymmetry holds on locally linear signals (interior
        # frames); see the delta window note in the module docs.
        for slope, n, fl in [(1.0, 60, 9), (-0.5, 45, 5), (0.25, 100, 21)]:
            row = np.clip(0.5 + slope * np.linspace(-0.4, 0.4, n), 0, 1)
            h = (fl - 1) // 2
            fwd = delta_scores(row, fl)
            rev = delta_scores(row[::-1], fl)
            np.testing.assert_allclose(
                rev[h:-h], -fwd[::-1][h:-h], atol=1e-12
            )

    def test_bad_filter_len(self):
        with pytest.raises(InvalidFilterLenError):
            delta_scores(np.zeros(10), 4)
        with pytest.raises(InvalidFilterLenError):
            delta_scores(np.zeros(10), 1)


def _per_row_boundaries(delta, threshold):
    """Reference: ``_boundaries`` of one delta row, with find_peaks run on the row alone."""
    peaks, _ = find_peaks(delta)
    troughs, _ = find_peaks(-delta)
    peaks = peaks[delta[peaks] > threshold]
    troughs = troughs[delta[troughs] < -threshold]
    return sorted(
        [(t, 1, abs(d)) for t, d in zip(peaks.tolist(), delta[peaks].tolist())]
        + [(t, -1, abs(d)) for t, d in zip(troughs.tolist(), delta[troughs].tolist())]
    )


@st.composite
def _quantized_deltas(draw):
    """(K, T) delta rows with plateaus everywhere, and a threshold.

    Rows are runs of a few score levels, or all zero, or all one, so the
    first and last frames always sit on a run. The delta is either the
    centred scores themselves (plateaus exactly) or their ``delta_scores``.
    A threshold below 0 also keeps marks of height 0, so a spurious mark
    where two rows meet is not filtered out by its height.
    """
    n_frames = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["zero", "one", "levels"]))
        if kind == "levels":
            row = []
            while len(row) < n_frames:
                row += [draw(st.sampled_from(LEVELS))] * draw(st.integers(1, 8))
        else:
            row = [float(kind == "one")] * n_frames
        rows.append(row[:n_frames])
    scores = np.array(rows)
    filter_len = draw(st.sampled_from([None, 3, 5, 21]))
    delta = scores - 0.5 if filter_len is None else delta_scores(scores, filter_len)
    return delta, draw(st.sampled_from([-0.3, 0.0, 0.02, 0.1, 0.25]))


class TestBoundaries:
    @settings(max_examples=400, deadline=None)
    @given(_quantized_deltas())
    def test_rows_at_once_equal_each_row_alone(self, case):
        delta, threshold = case
        assert _boundaries(delta, threshold) == [
            _per_row_boundaries(row, threshold) for row in delta
        ]


class TestDetectCandidates:
    def test_single_plateau(self):
        scores = np.zeros(100)
        scores[10:40] = 0.9
        cands = detect_candidates(_track(scores), CsebbConfig())["dog"]
        assert len(cands) == 1
        box = cands[0]
        assert abs(box.onset_s / HOP - 10) <= 1
        assert abs(box.offset_s / HOP - 40) <= 1
        assert box.confidence == pytest.approx(0.9, abs=1e-6)

    def test_all_zero_scores(self):
        cands = detect_candidates(_track(np.zeros(100)), CsebbConfig())
        assert cands["dog"] == []

    def test_two_plateaus(self):
        # Hand-checked delta extrema: rises at 20 and 120, falls at 60 and 160.
        scores = np.zeros(200)
        scores[20:60] = 0.9
        scores[120:160] = 0.8
        cands = detect_candidates(_track(scores), CsebbConfig())["dog"]
        assert len(cands) == 2
        for box, (on, off, conf) in zip(cands, [(20, 60, 0.9), (120, 160, 0.8)]):
            assert abs(box.onset_s / HOP - on) <= 1
            assert abs(box.offset_s / HOP - off) <= 1
            assert box.confidence == pytest.approx(conf, abs=1e-6)

    def test_unmatched_offset_opens_at_clip_start(self):
        scores = np.zeros(100)
        scores[:40] = 0.9
        cands = detect_candidates(_track(scores), CsebbConfig())["dog"]
        assert len(cands) == 1
        assert cands[0].onset_s == 0.0
        assert abs(cands[0].offset_s / HOP - 40) <= 1

    def test_unmatched_onset_closes_at_clip_end(self):
        scores = np.zeros(100)
        scores[60:] = 0.9
        cands = detect_candidates(_track(scores), CsebbConfig())["dog"]
        assert len(cands) == 1
        assert abs(cands[0].onset_s / HOP - 60) <= 1
        assert cands[0].offset_s == pytest.approx(100 * HOP)

    def test_boundaries_within_clip(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            scores = np.clip(rng.normal(0.4, 0.3, size=120), 0, 1)
            track = _track(scores, clip_id=f"c{trial}")
            for boxes in detect_candidates(track, CsebbConfig(filter_len=5)).values():
                for b in boxes:
                    assert 0.0 <= b.onset_s < b.offset_s <= 120 * HOP + 1e-9
                    assert 0.0 <= b.confidence <= 1.0

    def test_each_class_row_is_detected_as_if_alone(self):
        # "dog" is high at both clip edges and "cat" has boundaries within a
        # window of them, so "cat" padded with "dog"'s edge values would move.
        rng = np.random.default_rng(7)
        names = ("dog", "cat", "speech")
        scores = rng.uniform(0.0, 0.1, size=(3, 150))
        scores[0, :40] += 0.8
        scores[0, 130:] += 0.8
        scores[1, 3:60] += 0.7
        scores[1, 100:146] += 0.7
        scores[2, 50:90] += 0.6
        for fl in (5, 21):
            cfg = CsebbConfig(filter_len=fl)
            together = detect_candidates(_track(scores, class_names=names), cfg)
            for k, name in enumerate(names):
                alone = detect_candidates(_track(scores[k], class_names=(name,)), cfg)
                assert together[name] == alone[name]

    def test_score_range_enforced(self):
        with pytest.raises(ScoreOutOfRangeError):
            _track(np.array([0.0, 1.2, 0.5]))

    def test_repeated_class_name_rejected(self):
        with pytest.raises(ConfigInvalidError, match="distinct"):
            _track(np.zeros((2, 10)), class_names=("dog", "dog"))


class TestMergeGaps:
    def test_shallow_dip_merges(self):
        # gap mean 0.8 >= 0.15 and 0.9/0.8 = 1.125 <= 1.5 -> one box
        row = np.zeros(120)
        row[20:50] = 0.9
        row[50:52] = 0.8
        row[52:82] = 0.9
        cands = [
            SEBB(20 * HOP, 50 * HOP, "dog", 0.9),
            SEBB(52 * HOP, 82 * HOP, "dog", 0.9),
        ]
        merged = merge_gaps(cands, row, CsebbConfig(), HOP)
        assert len(merged) == 1
        assert merged[0].onset_s == pytest.approx(20 * HOP)
        assert merged[0].offset_s == pytest.approx(82 * HOP)
        # duration-weighted mean over the union span
        assert merged[0].confidence == pytest.approx(row[20:82].mean())

    def test_zero_gap_does_not_merge(self):
        row = np.zeros(200)
        row[20:50] = 0.9
        row[150:180] = 0.9
        cands = [
            SEBB(20 * HOP, 50 * HOP, "dog", 0.9),
            SEBB(150 * HOP, 180 * HOP, "dog", 0.9),
        ]
        assert merge_gaps(cands, row, CsebbConfig(), HOP) == cands

    def test_relative_rule_blocks_merge(self):
        # gap mean 0.2 passes the absolute floor but 0.9/0.2 = 4.5 > 1.5
        row = np.zeros(120)
        row[20:50] = 0.9
        row[50:60] = 0.2
        row[60:90] = 0.9
        cands = [
            SEBB(20 * HOP, 50 * HOP, "dog", 0.9),
            SEBB(60 * HOP, 90 * HOP, "dog", 0.9),
        ]
        assert len(merge_gaps(cands, row, CsebbConfig(), HOP)) == 2

    def test_single_candidate_unchanged(self):
        row = np.zeros(60)
        row[10:30] = 0.7
        cands = [SEBB(10 * HOP, 30 * HOP, "dog", 0.7)]
        assert merge_gaps(cands, row, CsebbConfig(), HOP) == cands

    def test_chain_merges_to_fixpoint(self):
        row = np.full(100, 0.8)
        cands = [
            SEBB(0 * HOP, 20 * HOP, "dog", 0.8),
            SEBB(22 * HOP, 40 * HOP, "dog", 0.8),
            SEBB(42 * HOP, 60 * HOP, "dog", 0.8),
        ]
        merged = merge_gaps(cands, row, CsebbConfig(), HOP)
        assert len(merged) == 1
        assert merged[0].onset_s == 0.0
        assert merged[0].offset_s == pytest.approx(60 * HOP)

    def test_output_disjoint_sorted_and_duration_never_shrinks(self):
        rng = np.random.default_rng(8)
        for trial in range(25):
            row = np.clip(rng.normal(0.4, 0.3, size=150), 0, 1)
            cands = detect_candidates(
                _track(row, clip_id=f"c{trial}"), CsebbConfig(filter_len=5)
            )["dog"]
            merged = merge_gaps(cands, row, CsebbConfig(filter_len=5), HOP)
            covered_in = sum(c.offset_s - c.onset_s for c in cands)
            covered_out = sum(m.offset_s - m.onset_s for m in merged)
            assert covered_out >= covered_in - 1e-9
            for a, b in zip(merged, merged[1:]):
                assert a.offset_s <= b.onset_s + 1e-9

    def test_unsorted_input_rejected(self):
        row = np.ones(50)
        cands = [
            SEBB(10 * HOP, 30 * HOP, "dog", 1.0),
            SEBB(20 * HOP, 40 * HOP, "dog", 1.0),
        ]
        with pytest.raises(UnsortedInputError):
            merge_gaps(cands, row, CsebbConfig(), HOP)


class TestThresholdEvents:
    BOXES = [
        SEBB(0.2, 0.5, "dog", 0.3),
        SEBB(1.0, 1.4, "dog", 0.6),
        SEBB(2.0, 2.2, "cat", 0.9),
    ]

    def test_zero_threshold_keeps_all(self):
        events = threshold_events(self.BOXES, {"dog": 0.0, "cat": 0.0}, clip_id="c")
        assert len(events) == 3

    def test_top_threshold_keeps_none(self):
        events = threshold_events(self.BOXES, {"dog": 1.0, "cat": 1.0}, clip_id="c")
        assert events == []

    def test_counting(self):
        events = threshold_events(self.BOXES, {}, clip_id="c", default=0.5)
        assert len(events) == 2

    def test_unknown_class(self):
        with pytest.raises(UnknownClassError):
            threshold_events(self.BOXES, {"dog": 0.5})

    def test_sorted_output(self):
        events = threshold_events(self.BOXES, {}, clip_id="c", default=0.0)
        assert events == sorted(events, key=lambda e: (e.onset_s, e.class_name))

    def test_threshold_validation(self):
        with pytest.raises(InvalidParameterError):
            threshold_events(self.BOXES, {"dog": 1.5})


class TestMonotoneSensitivity:
    def test_raising_threshold_shrinks_event_set_with_fixed_boundaries(self):
        rng = np.random.default_rng(11)
        cfg = CsebbConfig(filter_len=5)
        for trial in range(100):
            row = np.clip(
                np.convolve(rng.uniform(size=130), np.ones(5) / 5, mode="same"), 0, 1
            )
            track = _track(row, clip_id=f"c{trial}")
            boxes = detect_sebbs(track, cfg)
            lo, hi = sorted(rng.uniform(0, 1, size=2))
            keep_lo = {
                (e.onset_s, e.offset_s, e.class_name)
                for e in threshold_events(boxes, {}, clip_id="c", default=lo)
            }
            keep_hi = {
                (e.onset_s, e.offset_s, e.class_name)
                for e in threshold_events(boxes, {}, clip_id="c", default=hi)
            }
            # surviving set shrinks, boundaries of survivors identical
            assert keep_hi <= keep_lo


class TestTuneCsebb:
    def _fixture(self):
        tracks, events = [], []
        for i in range(3):
            s = np.zeros((2, 200))
            on, off = 40 + 10 * i, 120 + 10 * i
            s[0, on:off] = 0.9
            s[1, 30:90] = 0.85
            tracks.append(
                ScoreTrack(
                    scores=s, hop_seconds=HOP,
                    class_names=("dog", "cat"), clip_id=f"c{i}",
                )
            )
            events += [
                Event(f"c{i}", "dog", on * HOP, off * HOP),
                Event(f"c{i}", "cat", 30 * HOP, 90 * HOP),
            ]
        truth = AnnotationSet(
            events=events,
            clip_durations={f"c{i}": 200 * HOP for i in range(3)},
        )
        return tracks, truth

    def test_singleton_grid(self):
        tracks, truth = self._fixture()
        best = tune_csebb(tracks, truth, {"filter_len": [7]})
        assert best.filter_len == 7

    def test_recovers_clean_config(self):
        tracks, truth = self._fixture()
        grid = {"filter_len": [5, 21], "boundary_threshold": [0.1, 0.4]}
        best = tune_csebb(tracks, truth, grid)
        boxes = [(t.clip_id, detect_sebbs(t, best)) for t in tracks]
        cfg = PsdsConfig()
        per_threshold = [
            [Event(clip, s.class_name, s.onset_s, s.offset_s)
             for clip, found in boxes for s in found if s.confidence >= tau]
            for tau in cfg.thresholds
        ]
        value = psds(psd_roc(per_threshold, truth, cfg), cfg)
        assert value == pytest.approx(1.0)

    def test_deterministic(self):
        tracks, truth = self._fixture()
        grid = {"filter_len": [5, 9, 21], "boundary_threshold": [0.05, 0.1]}
        assert tune_csebb(tracks, truth, grid) == tune_csebb(tracks, truth, grid)

    def test_empty_grid(self):
        tracks, truth = self._fixture()
        with pytest.raises(EmptyGridError):
            tune_csebb(tracks, truth, {"filter_len": []})

    def test_unknown_key(self):
        tracks, truth = self._fixture()
        with pytest.raises(InvalidParameterError):
            tune_csebb(tracks, truth, {"window": [3]})

    def test_repeated_clip_id_rejected(self):
        tracks, truth = self._fixture()
        with pytest.raises(InvalidParameterError, match="'c1'"):
            tune_csebb(tracks + [tracks[1]], truth, {"filter_len": [7]})


# The per-config pipeline as it was before tune_csebb grouped its work: every
# grid point runs detection and merging from scratch through SEBB objects.
def _reference_detect_sebbs(track, cfg):
    hop, n_frames = track.hop_seconds, track.n_frames
    out = []
    for k, cname in enumerate(track.class_names):
        row = track.scores[k]
        delta = delta_scores(row, cfg.filter_len)
        peaks, _ = find_peaks(delta)
        troughs, _ = find_peaks(-delta)
        onsets = peaks[delta[peaks] > cfg.boundary_threshold].tolist()
        offsets = troughs[delta[troughs] < -cfg.boundary_threshold].tolist()
        marks = sorted(
            [(t, 1, abs(delta[t])) for t in onsets] + [(t, -1, abs(delta[t])) for t in offsets]
        )
        collapsed = []
        for kind, group in itertools.groupby(marks, key=lambda m: m[1]):
            collapsed.append((max(list(group), key=lambda m: m[2])[0], kind))
        spans, pending = [], None
        for t, kind in collapsed:
            if kind == 1:
                pending = t
            else:
                spans.append((pending if pending is not None else 0, t))
                pending = None
        if pending is not None:
            spans.append((pending, n_frames))
        cands = [SEBB(a * hop, b * hop, cname, float(row[a:b].mean())) for a, b in spans]
        events = [
            [int(round(s.onset_s / hop)), int(round(s.offset_s / hop)), s.confidence]
            for s in cands
        ]
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
                        merged[-1] = [prev[0], ev[1], float(row[prev[0] : ev[1]].mean())]
                        changed = True
                        continue
                merged.append(list(ev))
            events = merged
        out += [SEBB(a * hop, b * hop, cname, conf) for a, b, conf in events]
    out.sort(key=lambda s: (s.onset_s, s.class_name))
    return out


def _reference_grid(tracks, truth, grid):
    """(config, scored list, PSDS) of every grid point, in tune_csebb's order."""
    points = []
    for fl, bt, ma, mr in itertools.product(
        *(sorted(grid[k]) for k in (
            "filter_len", "boundary_threshold", "merge_threshold_abs", "merge_threshold_rel",
        ))
    ):
        cfg = CsebbConfig(
            filter_len=fl, merge_threshold_abs=ma, merge_threshold_rel=mr, boundary_threshold=bt,
        )
        by_clip = {tr.clip_id: _reference_detect_sebbs(tr, cfg) for tr in tracks}
        scored = [
            (s.confidence, Event(clip, s.class_name, s.onset_s, s.offset_s))
            for clip, found in by_clip.items()
            for s in found
        ]
        points.append((cfg, scored, psds(psd_roc(scored, truth))))
    return points



@st.composite
def _tuning_case(draw):
    classes = ("dog", "cat", "bird")[: draw(st.integers(1, 3))]
    tracks, events = [], []
    for i in range(draw(st.integers(1, 4))):
        # tracks of different lengths and hops, with their classes in any order
        names = tuple(draw(st.permutations(classes)))
        hop = draw(st.sampled_from([0.016, 0.02, 0.1]))
        n = draw(st.integers(3, 90))
        rows = []
        for cname in names:
            kind = draw(st.sampled_from(["zero", "levels", "uniform"]))
            if kind == "zero":
                row = [0.0] * n
            elif kind == "levels":  # runs of a few levels: plateaus and |delta| ties
                row = []
                while len(row) < n:
                    row += [draw(st.sampled_from(LEVELS))] * draw(st.integers(1, 12))
            else:
                row = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
            rows.append(row[:n])
            if draw(st.booleans()):
                a = draw(st.integers(0, n - 1))
                b = draw(st.integers(a + 1, n))
                events.append(Event(f"c{i}", cname, a * hop, b * hop))
        tracks.append(ScoreTrack(np.array(rows), hop, names, f"c{i}"))
    truth = AnnotationSet(
        events=events,
        clip_durations={tr.clip_id: tr.n_frames * tr.hop_seconds for tr in tracks},
    )

    def axis(values, max_size=2):
        return draw(st.lists(st.sampled_from(values), min_size=2, max_size=max_size, unique=True))

    grid = {
        "filter_len": axis([3, 5, 7, 9, 11, 21], max_size=3),
        "boundary_threshold": axis([0.02, 0.05, 0.1, 0.25]),
        "merge_threshold_abs": axis([0.05, 0.15, 0.3, 0.6]),
        "merge_threshold_rel": axis([0.5, 1.0, 1.5, 3.0]),
    }
    return tracks, truth, grid


class TestTuneCsebbMatchesPerConfigPipeline:
    @settings(max_examples=60, deadline=None)
    @given(_tuning_case())
    def test_every_grid_point_scored_list_and_psds_are_identical(self, case):
        tracks, truth, grid = case
        seen_dets, seen_psds = [], []

        def recording_match_counts(coded_truth, dets, code_col, *args):
            seen_dets.append((coded_truth, dets, code_col))
            return _match_counts(coded_truth, dets, code_col, *args)

        def recording_psds(*args):
            seen_psds.append(psds(*args))
            return seen_psds[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sedtk.sebb, "_match_counts", recording_match_counts)
            mp.setattr(sedtk.sebb, "psds", recording_psds)
            best = tune_csebb(tracks, truth, grid)

        reference = _reference_grid(tracks, truth, grid)
        assert len(seen_dets) == len(reference)
        for ((t_code, t_on, t_off), (d_code, d_on, d_off, conf), code_col), (_, scored, _) in zip(
            seen_dets, reference
        ):
            # every detection in order: its confidence and span as the reference's
            assert conf.tolist() == [c for c, _ in scored]
            assert d_on.tolist() == [e.onset_s for _, e in scored]
            assert d_off.tolist() == [e.offset_s for _, e in scored]
            assert t_on.tolist() == [e.onset_s for e in truth.events]
            assert t_off.tolist() == [e.offset_s for e in truth.events]
            # one code per (clip, class) of the truth and the detections, and
            # one column per class
            keys = [(e.clip_id, e.class_name) for e in truth.events]
            keys += [(e.clip_id, e.class_name) for _, e in scored]
            coded = set(zip(keys, t_code.tolist() + d_code.tolist()))
            assert len(coded) == len(set(keys)) == len({code for _, code in coded})
            columns = {(cls, int(code_col[code])) for (_, cls), code in coded}
            assert len(columns) == len({cls for cls, _ in columns}) == len(
                {col for _, col in columns}
            )
        assert seen_psds == [value for _, _, value in reference]
        winner = None
        for cfg, _, value in reference:
            if winner is None or value > winner[1] + 1e-12:
                winner = (cfg, value)
        assert best == winner[0]

    @settings(max_examples=40, deadline=None)
    @given(_tuning_case(), st.data())
    def test_clips_without_duration_are_named_at_the_reference_grid_point(self, case, data):
        tracks, truth, grid = case
        dated = data.draw(st.sets(st.sampled_from(sorted(truth.clip_durations))), label="dated")
        truth = AnnotationSet(
            events=truth.events,
            clip_durations={c: d for c, d in truth.clip_durations.items() if c in dated},
        )

        def outcome(run):
            try:
                return run()
            except InvalidParameterError as exc:
                return str(exc)

        got = outcome(lambda: tune_csebb(tracks, truth, grid))
        want = outcome(lambda: _reference_grid(tracks, truth, grid))
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str)
