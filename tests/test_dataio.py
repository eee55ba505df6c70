"""TSV/CSV readers and writers, class mapping, line-numbered errors."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sedtk.dataio import (
    DEFAULT_CLASS_MAP,
    apply_class_map,
    read_annotations,
    read_class_map,
    read_durations,
    read_scores,
    write_durations,
    write_events,
    write_scores,
)
from sedtk.errors import (
    InvalidIntervalError,
    InvalidParameterError,
    NonContiguousFramesError,
    ParseError,
    ScoreOutOfRangeError,
)
from sedtk.metrics import Event
from sedtk.sebb import ScoreTrack


class TestAnnotations:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("filename\tonset\toffset\tevent_label\na.wav\t1.0\t2.5\tdog\n")
        annos = read_annotations(path)
        assert annos.events == [Event("a.wav", "dog", 1.0, 2.5)]

    def test_invalid_interval_carries_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(
            "filename\tonset\toffset\tevent_label\n"
            "a.wav\t1.0\t2.5\tdog\n"
            "a.wav\t3.0\t3.0\tcat\n"
        )
        with pytest.raises(InvalidIntervalError) as err:
            read_annotations(path)
        assert err.value.line == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("file,onset,offset,label\n")
        with pytest.raises(ParseError):
            read_annotations(path)

    def test_bad_float_carries_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("filename\tonset\toffset\tevent_label\na.wav\tx\t2.0\tdog\n")
        with pytest.raises(ParseError) as err:
            read_annotations(path)
        assert err.value.line == 2

    def test_round_trip(self, tmp_path):
        events = [
            Event("b.wav", "cat", 0.123456, 4.5),
            Event("a.wav", "dog", 1.0, 2.5),
            Event("a.wav", "dog", 0.25, 0.75),
        ]
        path = tmp_path / "e.tsv"
        write_events(events, path)
        back = read_annotations(path).events
        assert len(back) == 3
        # sorted by (clip, onset, class); values preserved to 1e-6
        assert [e.clip_id for e in back] == ["a.wav", "a.wav", "b.wav"]
        for got, want in zip(
            back, sorted(events, key=lambda e: (e.clip_id, e.onset_s, e.class_name))
        ):
            assert got.class_name == want.class_name
            assert got.onset_s == pytest.approx(want.onset_s, abs=1e-6)
            assert got.offset_s == pytest.approx(want.offset_s, abs=1e-6)
        # second write is byte-stable
        path2 = tmp_path / "e2.tsv"
        write_events(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_list_gives_header_only(self, tmp_path):
        path = tmp_path / "e.tsv"
        write_events([], path)
        assert path.read_text() == "filename\tonset\toffset\tevent_label\n"

    def test_three_events_make_four_lines(self, tmp_path):
        events = [Event("a", "dog", float(i), i + 0.5) for i in range(3)]
        path = tmp_path / "e.tsv"
        write_events(events, path)
        assert len(path.read_text().splitlines()) == 4


class TestDurations:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "d.tsv"
        write_durations({"b": 12.5, "a": 600.0}, path)
        assert read_durations(path) == {"a": 600.0, "b": 12.5}

    def test_rejects_nonpositive(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("a\t0.0\n")
        with pytest.raises(ParseError) as err:
            read_durations(path)
        assert err.value.line == 1


class TestClassMap:
    def test_named_pairs(self):
        events = [
            Event("a", "dog_bark", 0.0, 1.0),
            Event("a", "cutlery_and_dishes", 1.0, 2.0),
            Event("a", "blender", 2.0, 3.0),
        ]
        mapped = apply_class_map(events, DEFAULT_CLASS_MAP)
        assert [e.class_name for e in mapped] == ["Dog", "Dishes", "blender"]

    def test_speech_superclass(self):
        names = ["people_talking", "children_voices", "announcements", "car"]
        assert apply_class_map(names, DEFAULT_CLASS_MAP) == [
            "Speech", "Speech", "Speech", "car",
        ]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("# comment\ndog_bark\tDog\ncutlery_and_dishes\tDishes\n")
        assert read_class_map(path) == {
            "dog_bark": "Dog", "cutlery_and_dishes": "Dishes",
        }

    def test_chain_rejected(self):
        with pytest.raises(InvalidParameterError):
            apply_class_map(["a"], {"a": "b", "b": "c"})

    def test_bad_line(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("only_one_field\n")
        with pytest.raises(ParseError) as err:
            read_class_map(path)
        assert err.value.line == 1


class TestScores:
    def _tracks(self):
        rng = np.random.default_rng(0)
        return [
            ScoreTrack(
                scores=rng.uniform(size=(3, 5)),
                hop_seconds=0.016,
                class_names=("dog", "cat", "speech"),
                clip_id=f"clip{i}",
            )
            for i in range(2)
        ]

    def test_round_trip(self, tmp_path):
        tracks = self._tracks()
        path = tmp_path / "s.csv"
        write_scores(tracks, path)
        back = read_scores(path)
        assert len(back) == 2
        for got, want in zip(back, tracks):
            assert got.clip_id == want.clip_id
            assert got.class_names == want.class_names
            assert got.hop_seconds == pytest.approx(want.hop_seconds)
            assert got.scores.shape == (3, 5)
            np.testing.assert_allclose(got.scores, want.scores, atol=1e-6)

    def test_out_of_range_score(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "# hop_seconds=0.016\nclip_id,frame,dog\nc0,0,1.2\n"
        )
        with pytest.raises(ScoreOutOfRangeError) as err:
            read_scores(path)
        assert err.value.line == 3

    def test_non_contiguous_frames(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "# hop_seconds=0.016\nclip_id,frame,dog\nc0,0,0.5\nc0,2,0.5\n"
        )
        with pytest.raises(NonContiguousFramesError) as err:
            read_scores(path)
        assert err.value.line == 4

    def test_missing_hop(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("clip_id,frame,dog\nc0,0,0.5\n")
        with pytest.raises(ParseError):
            read_scores(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# hop_seconds=0.02\nclip_id,frame,dog\nc0,0\n")
        with pytest.raises(ParseError) as err:
            read_scores(path)
        assert err.value.line == 3

    def test_clip_split_into_two_blocks_continues_its_frames(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "# hop_seconds=0.5\nclip_id,frame,dog\n"
            "a,0,0.1\na,1,0.2\nb,0,0.3\na,2,0.4\n"
        )
        tracks = read_scores(path)
        assert [t.clip_id for t in tracks] == ["a", "b"]
        np.testing.assert_array_equal(tracks[0].scores, [[0.1, 0.2, 0.4]])
        np.testing.assert_array_equal(tracks[1].scores, [[0.3]])
        path.write_text(
            "# hop_seconds=0.5\nclip_id,frame,dog\n"
            "a,0,0.1\nb,0,0.3\na,0,0.4\n"
        )
        with pytest.raises(NonContiguousFramesError) as err:
            read_scores(path)
        assert err.value.line == 5

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("frame", ["3.0", "2.9"])
    def test_frame_written_as_float_is_bad_with_warnings_ignored(self, tmp_path, frame):
        path = tmp_path / "s.csv"
        path.write_text(
            "# hop_seconds=0.5\nclip_id,frame,dog\n"
            f"a,0,0.1\na,1,0.2\na,2,0.3\na,{frame},0.4\n"
        )
        with pytest.raises(ParseError, match=f"bad frame index '{frame}'") as err:
            read_scores(path)
        assert err.value.line == 6

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_frame_truncated_by_numpy_with_a_warning_is_bad(self, tmp_path, monkeypatch):
        # numpy 1.23-2.x loadtxt parses an int64 field "2.9" as 2 and only
        # warns; the frame must still be rejected as int() rejects it.
        loadtxt = np.loadtxt

        def truncating_loadtxt(rows, **kwargs):
            warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
            split = (row.partition(",") for row in rows)
            return loadtxt([f"{int(float(f))},{rest}" for f, _, rest in split], **kwargs)

        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        path = tmp_path / "s.csv"
        path.write_text("# hop_seconds=0.5\nclip_id,frame,dog\na,0,0.1\na,1.9,0.2\n")
        with pytest.raises(ParseError, match="bad frame index '1.9'") as err:
            read_scores(path)
        assert err.value.line == 4


def _float(text, what, path, line_no):
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(f"bad {what}: {text!r}", path=path, line=line_no) from exc


def _read_scores_per_line(path):
    """Reference: the one-float()-per-value reader that read_scores replaces."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    hop = None
    header_idx = None
    for i, line in enumerate(lines):
        if line.startswith("#"):
            text = line.lstrip("#").strip()
            if text.startswith("hop_seconds="):
                hop = _float(text.split("=", 1)[1], "hop_seconds", path, i + 1)
        elif line.strip():
            header_idx = i
            break
    if hop is None:
        raise ParseError("missing '# hop_seconds=<v>' comment", path=path, line=1)
    if header_idx is None:
        raise ParseError("missing header row", path=path, line=len(lines))
    header = lines[header_idx].split(",")
    if len(header) < 3 or header[0] != "clip_id" or header[1] != "frame":
        raise ParseError(
            "header must be clip_id,frame,<class names>",
            path=path, line=header_idx + 1,
        )
    class_names = tuple(header[2:])

    rows = {}
    for i, line in enumerate(lines[header_idx + 1 :], start=header_idx + 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2 + len(class_names):
            raise ParseError(
                f"expected {2 + len(class_names)} fields, got {len(parts)}",
                path=path, line=i,
            )
        clip = parts[0]
        try:
            frame = int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad frame index {parts[1]!r}", path=path, line=i) from exc
        values = [_float(v, "score", path, i) for v in parts[2:]]
        for v in values:
            if not 0.0 <= v <= 1.0:
                raise ScoreOutOfRangeError(f"score {v} out of [0,1]", path=path, line=i)
        expected = len(rows.setdefault(clip, []))
        if frame != expected:
            raise NonContiguousFramesError(
                f"clip {clip!r}: expected frame {expected}, got {frame}",
                path=path, line=i,
            )
        rows[clip].append(values)
    return [
        ScoreTrack(
            scores=np.array(values, dtype=np.float64).T,
            hop_seconds=hop, class_names=class_names, clip_id=clip,
        )
        for clip, values in rows.items()
    ]


# (field, text) replacements; field 1 is the frame, 2 the first score.
_MUTATIONS = [
    "drop field", "extra field", "no comma", "frame gap", "frame as float", "comment line",
    (1, "x"), (2, "nan"), (2, "1.2"), (2, "0_5"), (2, ""), (2, "0.2_5"),
]


@st.composite
def _score_csv(draw):
    """A valid score CSV as lines, then at most one mutation of one body row."""
    n_classes = draw(st.integers(1, 3))
    fmt = draw(st.sampled_from(["{:.6f}", "{!r}"]))
    body = []
    for c in range(draw(st.integers(1, 4))):
        for t in range(draw(st.integers(1, 5))):
            values = draw(st.lists(st.floats(0.0, 1.0), min_size=n_classes, max_size=n_classes))
            body.append([f"clip{c}", str(t)] + [fmt.format(v) for v in values])
    mutation = draw(st.none() | st.sampled_from(_MUTATIONS))
    row = body[draw(st.integers(0, len(body) - 1))]
    if mutation == "drop field":
        row.pop()
    elif mutation == "extra field":
        row.append("0.5")
    elif mutation == "no comma":
        del row[1:]
    elif mutation == "frame gap":
        row[1] = str(int(row[1]) + 1)
    elif mutation == "frame as float":
        row[1] += ".0"
    elif mutation is not None and mutation != "comment line":
        field, text = mutation
        row[field] = text
    lines = [",".join(r) for r in body]
    if mutation == "comment line":
        lines.insert(body.index(row), "# note")
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    header = ",".join(["clip_id", "frame"] + [f"c{k}" for k in range(n_classes)])
    return ["# hop_seconds=0.016", header] + lines


def _outcome(reader, path):
    try:
        tracks = reader(path)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    return [(t.clip_id, t.class_names, t.hop_seconds, t.scores) for t in tracks]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("scores") / "s.csv"


@settings(max_examples=300, deadline=None)
@given(_score_csv())
@example(["# hop_seconds=1", "clip_id,frame,c0", "a,0,0.1", "a,1,0.2", "a,2,0.3", "a,3.0,0.4"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "a"])
def test_read_scores_matches_per_line_reader(csv_path, lines):
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fast = _outcome(read_scores, csv_path)
    slow = _outcome(_read_scores_per_line, csv_path)
    if isinstance(fast, tuple) or isinstance(slow, tuple):
        assert fast == slow
    else:
        assert [t[:3] for t in fast] == [t[:3] for t in slow]
        assert all(np.array_equal(f[3], s[3]) for f, s in zip(fast, slow))
