"""TSV/CSV readers and writers, class mapping, line-numbered errors."""

import os
import re
import stat
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sedtk.core import DomainTag, FeatureMap, atomic_open, make_batch, write_fmt
from sedtk.dataio import (
    _fixed_decimals,
    _read_lines,
    _score_header,
    _score_lines,
    _score_table,
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
from sedtk.frontend import AudioClip, write_wav
from sedtk.metrics import Event
from sedtk.sebb import ScoreTrack
from sedtk.stats import export_stats


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

    @pytest.mark.parametrize("text", ["inf", "Infinity", "nan"])
    def test_rejects_non_finite(self, tmp_path, text):
        path = tmp_path / "d.tsv"
        path.write_text(f"a\t10.0\nb\t{text}\n")
        message = r"duration must be finite and > 0, got (inf|nan)$"
        with pytest.raises(ParseError, match=message) as err:
            read_durations(path)
        assert err.value.line == 2

    def test_repeated_clip_rejected(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("a\t10\nb\t10\na\t20\n")
        with pytest.raises(ParseError, match=f"key 'a' is already set at {path}:1$") as err:
            read_durations(path)
        assert err.value.line == 3


# Super-class pairs of the two-corpus setting; sources not listed pass through.
CLASS_MAP = {
    "people_talking": "Speech",
    "children_voices": "Speech",
    "announcements": "Speech",
    "cutlery_and_dishes": "Dishes",
    "dog_bark": "Dog",
}


class TestClassMap:
    def test_named_pairs(self):
        events = [
            Event("a", "dog_bark", 0.0, 1.0),
            Event("a", "cutlery_and_dishes", 1.0, 2.0),
            Event("a", "blender", 2.0, 3.0),
        ]
        mapped = apply_class_map(events, CLASS_MAP)
        assert [e.class_name for e in mapped] == ["Dog", "Dishes", "blender"]

    def test_speech_superclass(self):
        names = ["people_talking", "children_voices", "announcements", "car"]
        events = [Event("a", name, float(i), i + 1.0) for i, name in enumerate(names)]
        mapped = apply_class_map(events, CLASS_MAP)
        assert [e.class_name for e in mapped] == ["Speech", "Speech", "Speech", "car"]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("# comment\ndog_bark\tDog\ncutlery_and_dishes\tDishes\n")
        assert read_class_map(path) == {
            "dog_bark": "Dog", "cutlery_and_dishes": "Dishes",
        }

    def test_chain_rejected(self):
        with pytest.raises(InvalidParameterError):
            apply_class_map([Event("x", "a", 0.0, 1.0)], {"a": "b", "b": "c"})

    def test_bad_line(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("only_one_field\n")
        with pytest.raises(ParseError) as err:
            read_class_map(path)
        assert err.value.line == 1

    def test_repeated_source_rejected(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("# map\ndog\tdog_super\ndog\tcat\n")
        with pytest.raises(ParseError, match=f"key 'dog' is already set at {path}:2$") as err:
            read_class_map(path)
        assert err.value.line == 3


class TestReadLines:
    @pytest.mark.parametrize(
        "data, line",
        [
            (b"\xff\xfe", 1),
            (b"a\tb\n\xffc\n", 2),
            (b"a\r\nb\r\nc\xe9\r\n", 3),  # Latin-1, not UTF-8
            (b"a\rb\x0cc\n\n\xc3", 5),  # str.splitlines numbering; a cut sequence
        ],
    )
    def test_bad_byte_is_an_error_on_its_line(self, tmp_path, data, line):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="not UTF-8 text$") as err:
            _read_lines(path)
        assert err.value.line == line
        assert str(err.value) == f"{path}:{line}: not UTF-8 text"

    def test_lines_are_those_of_read_text(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("a\r\nb\rc\x0cd\u2028e\n\n".encode())
        assert _read_lines(path) == path.read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize(
        "reader", [read_annotations, read_durations, read_class_map, read_scores]
    )
    def test_every_reader_rejects_bad_bytes(self, tmp_path, reader):
        path = tmp_path / "t.txt"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ParseError, match="not UTF-8 text$"):
            reader(path)


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

    @pytest.mark.parametrize("header", ["clip_id,frame,dog,dog", "clip_id,frame,frame"])
    def test_repeated_header_name_rejected(self, tmp_path, header):
        path = tmp_path / "s.csv"
        path.write_text(f"# hop_seconds=0.02\n{header}\nc0,0,0.5,0.5\n")
        with pytest.raises(ParseError) as err:
            read_scores(path)
        assert err.value.line == 2

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

    def test_blank_lines_stay_on_the_column_path(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# hop_seconds=0.5\n\nclip_id,frame,dog\n\na,0,0.1\na,1,0.2\n\nb,0,0.3\n\n")
        tracks = _score_table(path)
        assert tracks is not None
        assert [t.clip_id for t in tracks] == ["a", "b"]
        np.testing.assert_array_equal(tracks[0].scores, [[0.1, 0.2]])
        np.testing.assert_array_equal(tracks[1].scores, [[0.3]])

    @pytest.mark.parametrize("frame", ["3.0", "2.9", "1.9"])
    def test_frame_written_as_float_is_bad_with_warnings_ignored(self, tmp_path, frame):
        path = tmp_path / "s.csv"
        path.write_text(
            "# hop_seconds=0.5\nclip_id,frame,dog\n"
            f"a,0,0.1\na,1,0.2\na,2,0.3\na,{frame},0.4\n"
        )
        with pytest.raises(ParseError, match=f"bad frame index '{frame}'") as err:
            read_scores(path)
        assert err.value.line == 6

    @pytest.mark.parametrize(
        "clip_ids",
        [["a", "b"], ["x" * 64, "y" * 200], ["é" * 40, "日本" * 30, "£"], ["", " a ", "#b"]],
    )
    @pytest.mark.parametrize("n_classes, n_frames", [(1, 3), (3, 120), (10, 1001)])
    def test_written_scores_stay_on_the_byte_path(self, tmp_path, clip_ids, n_classes, n_frames):
        rng = np.random.default_rng(n_frames)
        names = tuple(f"c{k}" for k in range(n_classes))
        tracks = [
            ScoreTrack(rng.uniform(size=(n_classes, n_frames)), 0.02, names, clip)
            for clip in clip_ids
        ]
        path = tmp_path / "s.csv"
        write_scores(tracks, path)
        fast = _score_table(path)
        assert fast is not None  # a silent fall to the line reader would pass the rest
        assert [t.clip_id for t in fast] == clip_ids
        assert _outcome(_score_table, path) == _outcome(_line_reader, path)

    @pytest.mark.parametrize("places", range(1, 16))
    def test_every_fixed_decimal_width_stays_on_the_byte_path(self, tmp_path, places):
        rng = np.random.default_rng(places)
        values = np.concatenate([[0.0, 1.0], rng.uniform(size=58)]).reshape(20, 3)
        rows = [f"a,{t}," + ",".join(f"{v:.{places}f}" for v in row) for t, row in enumerate(values)]
        path = tmp_path / "s.csv"
        path.write_text("# hop_seconds=0.5\nclip_id,frame,x,y,z\n" + "\n".join(rows) + "\n")
        fast = _score_table(path)
        assert fast is not None
        want = [[float(f"{v:.{places}f}") for v in row] for row in values]
        assert np.array_equal(fast[0].scores.view(np.int64), np.array(want).T.view(np.int64))
        assert _outcome(_score_table, path) == _outcome(_line_reader, path)

    @pytest.mark.parametrize(
        "lines",
        [
            ["a,0,0.10", "a,1,0.2"],  # one width per file
            ["a,0,0.1e0"], ["a,0,+0.1"], ["a,0, 0.1"], ["a,0,.1"], ["a,0,1."], ["a,0,0.5 "],
            ["a, 0,0.1"], ["a,+0,0.1"], ["a,0,0.1", "  "], ["a,0,0.1\r"], ["a\x85,0,0.1"],
            ["a,0,0.1234567890123456"],  # 16 places
            ["a,0,0.1", "a,2,0.1"], ["a,0,0.1", "b,0,0.1", "a,1,0.1"], ["a,0,1.5"],
        ],
    )
    def test_files_off_the_fixed_layout_go_to_the_line_reader(self, tmp_path, lines):
        path = tmp_path / "s.csv"
        path.write_text("# hop_seconds=0.5\nclip_id,frame,dog\n" + "\n".join(lines) + "\n")
        assert _score_table(path) is None
        assert _outcome(read_scores, path) == _outcome(_read_scores_per_line, path)

    def test_file_without_a_final_lf_goes_to_the_line_reader(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# hop_seconds=0.5\nclip_id,frame,dog\na,0,0.1")
        assert _score_table(path) is None
        np.testing.assert_array_equal(read_scores(path)[0].scores, [[0.1]])


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
    "longer clip id", "shorter clip id", "frame restart", "short and long rows",
    (1, "x"), (2, "nan"), (2, "1.2"), (2, "0_5"), (2, ""), (2, "0.2_5"),
]


@st.composite
def _score_csv(draw):
    """A valid score CSV as lines, then at most one mutation of one body row."""
    n_classes = draw(st.integers(1, 3))
    fmt = draw(st.sampled_from(["{!r}"] + [f"{{:.{n}f}}" for n in range(1, 16)]))
    value = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    body = []
    for c in range(draw(st.integers(1, 4))):
        for t in range(draw(st.integers(1, 5))):
            values = draw(st.lists(value, min_size=n_classes, max_size=n_classes))
            body.append([f"clip{c}", str(t)] + [fmt.format(v) for v in values])
    mutation = draw(st.none() | st.sampled_from(_MUTATIONS))
    row = body[draw(st.integers(0, len(body) - 1))]
    if mutation == "drop field":
        row.pop()
    elif mutation == "extra field":
        row.append("0.5")
    elif mutation == "longer clip id":  # clip0 -> clip01: same prefix, another id
        row[0] += "1"
    elif mutation == "shorter clip id":  # clip0 -> clip
        row[0] = row[0][:-1]
    elif mutation == "frame restart":
        row[1] = "0"
    elif mutation == "short and long rows":  # the file's comma total is unchanged
        row.pop()
        body[draw(st.integers(0, len(body) - 1))].append("0.5")
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
    """The error, or every track's id, classes, hop and score bits."""
    try:
        tracks = reader(path)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    return [(t.clip_id, t.class_names, t.hop_seconds, t.scores.shape, t.scores.tobytes())
            for t in tracks]


def _line_reader(path):
    lines = iter(_read_lines(path))
    hop, class_names, n_read = _score_header(lines, path)
    return _score_lines(lines, n_read + 1, path, hop, class_names)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("scores") / "s.csv"


@settings(max_examples=300, deadline=None)
@given(_score_csv())
@example(["# hop_seconds=1", "clip_id,frame,c0", "a,0,0.1", "a,1,0.2", "a,2,0.3", "a,3.0,0.4"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "a"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "a,0,0.1", "a,1,0.2", "a,0,0.3"])
# Rows the streamed pass cannot vouch for: ids numpy would cut or drop a NUL
# from, ids it cannot encode, and breaks str.splitlines honours but a file's
# lines do not, in an id or around a number.
@example(["# hop_seconds=1", "clip_id,frame,c0", "x" * 64 + ",0,0.1", "x" * 64 + ",1,0.2"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "x" * 65 + ",0,0.1", "x" * 65 + ",1,0.2"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "a\x00,0,0.1", "a,0,0.2"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "a\x0c,0,0.1"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "a,0\x0b,0.1"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "a,0,0.1", "a,1,0.2\x1c"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "a\x85b,0,0.1"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "a,0,\u20280.1"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "日本,0,0.1", "日本,1,0.2", "é,0,0.3"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "é,0,0.1", "é,1,0.2", "ß,0,0.3"])
@example(["# hop_seconds=1\r", "clip_id,frame,c0\r", "a,0,0.1\r", "a,1,0.2\r", "b,0,0.3\r"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "a,0,0.1", "  ", "\t", "a,1,0.2", "\xa0"])
# Rows the byte pass must not misread: an id that is a prefix of its block's
# id, a frame after a byte other than a comma, and a header line that
# str.splitlines splits again.
@example(["# hop_seconds=1", "clip_id,frame,c0", "ab,0,0.1", "a,1,0.2"])
@example(["# hop_seconds=1", "clip_id,frame,c0", "a;0,0.1"])
@example(["# hop_seconds=1", "clip_id,frame,c0\x1cc1", "a,0,0.1"])
@example(["# hop_seconds=1", "clip_id,frame,c0\u2029c1", "a,0,0.1"])
def test_read_scores_matches_per_line_reader(csv_path, lines):
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _outcome(read_scores, csv_path) == _outcome(_read_scores_per_line, csv_path)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 15).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, 2 * 10**n - 1), min_size=1, max_size=4)
    ))
)
@example((15, [2 * 10**15 - 1, 10**15, 1, 0]))
@example((1, [19, 10, 0]))
def test_fixed_decimal_is_the_float_of_its_text(case):
    places, mantissas = case
    texts = [f"{m // 10**places}.{m % 10**places:0{places}d}" for m in mantissas]
    tails = np.frombuffer((",".join(texts) + "\n").encode(), dtype=np.uint8)[None, :]
    got = _fixed_decimals(tails, len(texts), 1)
    assert np.array_equal(got.view(np.int64), np.array([[float(t) for t in texts]]).view(np.int64))


def _write_scores_per_value(tracks, path):
    """Reference: the one-f"{v:.6f}"-per-value writer that write_scores replaces."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# hop_seconds={tracks[0].hop_seconds:.9g}\n")
        fh.write("clip_id,frame," + ",".join(tracks[0].class_names) + "\n")
        for tr in tracks:
            for t in range(tr.n_frames):
                vals = ",".join(f"{v:.6f}" for v in tr.scores[:, t])
                fh.write(f"{tr.clip_id},{t},{vals}\n")


_SCORE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-7, 2.5e-7, 0.1234565, 1 - 5e-7, 5e-324]),
    st.floats(0.0, 1.0),
)


@st.composite
def _score_tracks(draw):
    n_classes = draw(st.integers(1, 3))
    clip_ids = draw(st.lists(
        st.text("ab%d_ .", min_size=1, max_size=4).filter(str.strip),
        min_size=1, max_size=3, unique=True,
    ))
    return [
        ScoreTrack(
            scores=np.array(draw(st.lists(
                st.lists(_SCORE, min_size=n_classes, max_size=n_classes),
                min_size=1, max_size=6,
            ))).T,
            hop_seconds=0.016,
            class_names=tuple(f"c{k}" for k in range(n_classes)),
            clip_id=clip,
        )
        for clip in clip_ids
    ]


@settings(max_examples=150, deadline=None)
@given(_score_tracks())
@example([ScoreTrack(np.array([[0.5, 1.0]]), 0.5, ("dog",), "100%d")])
def test_write_scores_matches_per_value_writer(tmp_path_factory, tracks):
    tmp = tmp_path_factory.mktemp("write")
    write_scores(tracks, tmp / "block.csv")
    _write_scores_per_value(tracks, tmp / "value.csv")
    assert (tmp / "block.csv").read_bytes() == (tmp / "value.csv").read_bytes()
    back = read_scores(tmp / "block.csv")
    assert [t.clip_id for t in back] == [t.clip_id for t in tracks]
    for got, want in zip(back, tracks):
        assert got.class_names == want.class_names
        assert got.hop_seconds == want.hop_seconds
        rounded = [[float(f"{v:.6f}") for v in row] for row in want.scores]
        np.testing.assert_array_equal(got.scores, rounded)


class TestWritersRefuseSplitFields:
    """A writer refuses a field its reader would split, before it opens the file."""

    @pytest.mark.parametrize(
        "clip, name, message",
        [
            ("a,b", "dog", "clip id 'a,b' holds ','"),
            ("a\nb", "dog", "clip id 'a\\nb' holds ','"),
            ("a\r", "dog", "clip id 'a\\r' holds ','"),
            ("a\u2028", "dog", "clip id 'a\\u2028' holds ','"),
            ("a", "d,og", "class name 'd,og' holds ','"),
            ("a", "dog\x0c", "class name 'dog\\x0c' holds ','"),
        ],
    )
    def test_write_scores(self, tmp_path, clip, name, message):
        path = tmp_path / "s.csv"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            write_scores([ScoreTrack(np.zeros((1, 2)), 0.5, (name,), clip)], path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "clip, name, message",
        [
            ("a\tb", "dog", "clip id 'a\\tb' holds '\\t'"),
            ("a\n", "dog", "clip id 'a\\n' holds '\\t'"),
            ("a\x1e", "dog", "clip id 'a\\x1e' holds '\\t'"),
            ("a", "d\tog", "class 'd\\tog' holds '\\t'"),
            ("a", "dog\x85", "class 'dog\\x85' holds '\\t'"),
        ],
    )
    def test_write_events(self, tmp_path, clip, name, message):
        path = tmp_path / "e.tsv"
        events = [Event("b", "cat", 0.0, 1.0), Event(clip, name, 1.0, 2.0)]
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            write_events(events, path)
        assert not path.exists()

    def test_a_comma_is_a_plain_character_in_an_event_tsv(self, tmp_path):
        path = tmp_path / "e.tsv"
        write_events([Event("a,b", "dog, big", 0.0, 1.0)], path)
        assert read_annotations(path).events == [Event("a,b", "dog, big", 0.0, 1.0)]


def _tiny_batch():
    return make_batch([FeatureMap(np.ones((1, 2, 3), np.float32))], [DomainTag.DESED])


_WRITERS = {
    "write_events": lambda path: write_events([Event("a", "dog", 0.0, 1.0)], path),
    "write_scores": lambda path: write_scores(
        [ScoreTrack(np.full((1, 2), 0.5), 0.5, ("dog",), "a")], path
    ),
    "write_durations": lambda path: write_durations({"a": 1.0}, path),
    "write_fmt": lambda path: write_fmt(_tiny_batch(), path),
    "export_stats": lambda path: export_stats(_tiny_batch(), "frequency", path),
    "write_wav": lambda path: write_wav(path, AudioClip(np.zeros(8), 16000), "pcm16"),
}


class TestAtomicWrites:
    def test_error_mid_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("new, half written")
                raise RuntimeError
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_writer_failing_mid_write_keeps_the_old_file(self, tmp_path):
        class Unformattable(float):
            def __format__(self, spec):
                raise RuntimeError("cannot format")

        path = tmp_path / "e.tsv"
        write_events([Event("a", "dog", 0.0, 1.0)], path)
        old = path.read_bytes()
        events = [Event("a", "dog", 0.0, 1.0), Event("b", "dog", Unformattable(1.0), 2.0)]
        with pytest.raises(RuntimeError, match="cannot format"):
            write_events(events, path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["e.tsv"]

    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_every_writer_replaces_its_file_only_when_done(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out"
        _WRITERS[writer](path)
        written = path.read_bytes()
        path.write_bytes(b"old")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            _WRITERS[writer](path)
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out"]
        monkeypatch.undo()
        _WRITERS[writer](path)
        assert path.read_bytes() == written

    def test_a_replaced_file_keeps_its_permission_bits(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("old\n")
        path.chmod(0o600)
        write_durations({"a": 1.0}, path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert path.read_text() == "a\t1.000000\n"

    def test_a_symlink_keeps_pointing_at_its_target(self, tmp_path):
        target = tmp_path / "real.tsv"
        target.write_text("old\n")
        link = tmp_path / "link.tsv"
        link.symlink_to(target)
        write_durations({"a": 1.0}, link)
        assert link.is_symlink()
        assert target.read_text() == "a\t1.000000\n"

    def test_a_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_durations({"a": 1.0}, fifo)
        reader.join(timeout=10)
        assert got == [b"a\t1.000000\n"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_missing_directory_error_names_the_path_asked_for(self, tmp_path):
        path = tmp_path / "missing" / "d.tsv"
        with pytest.raises(FileNotFoundError, match=re.escape(str(path))):
            write_durations({"a": 1.0}, path)
