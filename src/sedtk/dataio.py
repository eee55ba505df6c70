"""File formats shared by the pipelines.

Events are DCASE-style TSV (filename/onset/offset/event_label), frame
scores are CSV with a hop_seconds comment line, durations are plain
clip_id<TAB>seconds text, and class maps are source<TAB>target lines.
Everything is UTF-8 with LF line endings; readers reject malformed input
with a line-numbered error rather than silently accepting part of a file.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InvalidIntervalError,
    InvalidParameterError,
    NonContiguousFramesError,
    ParseError,
    ScoreOutOfRangeError,
)
from .metrics import AnnotationSet, Event
from .sebb import ScoreTrack

EVENT_HEADER = "filename\tonset\toffset\tevent_label"


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, as ``str.splitlines`` splits them.

    A byte that is not UTF-8 is a ``ParseError`` on the line that holds it.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError("not UTF-8 text", path=path, line=line) from None


def _float(text: str, what: str, path, line_no: int) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(f"bad {what}: {text!r}", path=path, line=line_no) from exc


def read_annotations(path) -> AnnotationSet:
    """Parse an event TSV into an AnnotationSet (durations left empty)."""
    lines = _read_lines(path)
    if not lines or lines[0] != EVENT_HEADER:
        raise ParseError(
            f"expected header {EVENT_HEADER!r}", path=path, line=1
        )
    events = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(
                f"expected 4 tab-separated fields, got {len(parts)}",
                path=path, line=i,
            )
        clip, onset, offset, label = parts
        onset_v = _float(onset, "onset", path, i)
        offset_v = _float(offset, "offset", path, i)
        if not onset_v < offset_v:
            raise InvalidIntervalError(
                f"offset {offset_v} must exceed onset {onset_v}", path=path, line=i
            )
        if onset_v < 0:
            raise InvalidIntervalError(
                f"onset must be >= 0, got {onset_v}", path=path, line=i
            )
        events.append(
            Event(clip_id=clip, class_name=label, onset_s=onset_v, offset_s=offset_v)
        )
    return AnnotationSet(events=events)


def write_events(events: Sequence[Event], path) -> None:
    """Write events as TSV, sorted by (clip, onset, class)."""
    rows = sorted(events, key=lambda e: (e.clip_id, e.onset_s, e.class_name))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(EVENT_HEADER + "\n")
        for e in rows:
            fh.write(f"{e.clip_id}\t{e.onset_s:.6f}\t{e.offset_s:.6f}\t{e.class_name}\n")


def _read_tab_pairs(path, shape: str) -> dict[str, tuple[str, int]]:
    """Map the first field of each ``shape`` line to its second field and line.

    Blank lines and '#' comments are skipped. A line that is not two
    non-empty TAB-separated fields, or that repeats an earlier first field,
    is a ``ParseError``.
    """
    pairs: dict[str, tuple[str, int]] = {}
    for i, line in enumerate(_read_lines(path), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not all(parts):
            raise ParseError(f"expected {shape}, got {line!r}", path=path, line=i)
        key, value = parts
        if key in pairs:
            raise ParseError(
                f"key {key!r} is already set at {path}:{pairs[key][1]}", path=path, line=i
            )
        pairs[key] = (value, i)
    return pairs


def read_durations(path) -> dict[str, float]:
    """Parse clip_id<TAB>seconds lines; '#' comments allowed."""
    durations: dict[str, float] = {}
    for clip, (text, i) in _read_tab_pairs(path, "clip_id<TAB>seconds").items():
        value = _float(text, "duration", path, i)
        if not 0 < value < float("inf"):
            raise ParseError(
                f"duration must be finite and > 0, got {value}", path=path, line=i
            )
        durations[clip] = value
    return durations


def write_durations(durations: Mapping[str, float], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for clip in sorted(durations):
            fh.write(f"{clip}\t{durations[clip]:.6f}\n")


def read_class_map(path) -> dict[str, str]:
    """Parse source<TAB>target lines; '#' starts a comment."""
    pairs = {src: dst for src, (dst, _) in _read_tab_pairs(path, "source<TAB>target").items()}
    _check_chain_free(pairs)
    return pairs


def _check_chain_free(pairs: Mapping[str, str]) -> None:
    for src, dst in pairs.items():
        if dst in pairs and pairs[dst] != dst:
            raise InvalidParameterError(
                f"class map is not chain-free: {src!r} -> {dst!r} -> {pairs[dst]!r}"
            )


def apply_class_map(events: Sequence[Event], mapping: Mapping[str, str]) -> list[Event]:
    """Replace source classes by their super-class; others pass through."""
    _check_chain_free(mapping)
    return [
        Event(
            clip_id=e.clip_id,
            class_name=mapping.get(e.class_name, e.class_name),
            onset_s=e.onset_s,
            offset_s=e.offset_s,
        )
        for e in events
    ]


def read_scores(path) -> list[ScoreTrack]:
    """Parse the frame-score CSV into one ScoreTrack per clip.

    Layout: a ``# hop_seconds=<v>`` comment line, a header
    ``clip_id,frame,<class...>``, then one row per (clip, frame) with the
    frames of each clip contiguous from 0. A clip's rows may come in
    several blocks as long as its frame numbers continue across them.
    Tracks are returned in the order of each clip's first row.

    The file is parsed in one streamed numpy pass; a file that pass cannot
    vouch for is read again line by line, which gives the same tracks or
    the line-numbered error.
    """
    tracks = _score_table(path)
    if tracks is None:
        lines = iter(_read_lines(path))
        hop, class_names, n_read = _score_header(lines, path)
        tracks = _score_lines(lines, n_read + 1, path, hop, class_names)
    return tracks


def _score_header(lines, path) -> tuple[float, tuple[str, ...], int]:
    """The hop, the class names and the count of lines read, up to the header row.

    ``lines`` is an iterator; it is left at the first row after the header.
    """
    hop = header = None
    n_read = 0
    for n_read, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if line.startswith("#"):
            text = line.lstrip("#").strip()
            if text.startswith("hop_seconds="):
                hop = _float(text.split("=", 1)[1], "hop_seconds", path, n_read)
                if not 0 < hop < float("inf"):
                    raise ParseError(
                        f"hop_seconds must be finite and > 0, got {hop}", path=path, line=n_read
                    )
        elif line.strip():
            header = line.split(",")
            break
    if hop is None:
        raise ParseError("missing '# hop_seconds=<v>' comment", path=path, line=1)
    if header is None:
        raise ParseError("missing header row", path=path, line=n_read)
    if len(header) < 3 or header[:2] != ["clip_id", "frame"] or len(set(header)) < len(header):
        raise ParseError(
            "header must be clip_id,frame,<distinct class names>", path=path, line=n_read
        )
    return hop, tuple(header[2:]), n_read


# Bytes after which reading line by line may split a file otherwise than
# str.splitlines: the breaks it honours besides \n and \r, and the UTF-8 lead
# bytes of U+0085, U+2028 and U+2029 (which begin other characters too). NUL
# is one more, as a fixed-width bytes field drops it from the end of an id.
_SPLIT_BYTES = b"\x00\x0b\x0c\x1c\x1d\x1e\xc2\xe2"
_ID_BYTES = 64  # width of the clip column; an id that fills it may have been cut


def _splits_alike(path) -> bool:
    """Whether ``path`` holds none of _SPLIT_BYTES."""
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            if any(b in block for b in _SPLIT_BYTES):
                return False
    return True


def _score_table(path) -> list[ScoreTrack] | None:
    """Score CSV parsed as columns in one numpy pass over the open file.

    Returns None, for the line-by-line reader to raise the line-numbered
    error or to accept what numpy's stricter syntax refused, unless the file
    is UTF-8 with a valid header, every row has 2 + K fields, an id numpy
    keeps whole, an integer frame and K scores in [0, 1], and every clip's
    frames run 0..n-1 in a single block of rows.
    """
    if not _splits_alike(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            hop, class_names, _ = _score_header(fh, path)
            dtype = [
                ("clip", f"S{_ID_BYTES}"), ("frame", np.int64),
                ("scores", np.float64, (len(class_names),)),
            ]
            # numpy 1.23-2.x reads a frame like "3.0" or "2.9" through float() and
            # truncates it, with only a DeprecationWarning; int() rejects both.
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # Without usecols, loadtxt rejects a row that is not 2 + K fields.
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ParseError, ValueError, DeprecationWarning):  # ValueError: also a bad UTF-8 byte
        return None
    if table.size == 0:
        return []
    # A block starts at each frame 0, its frames count up from there, and
    # each of its rows holds the id of its first row.
    frames, ids = table["frame"], table["clip"]
    index = np.arange(frames.size)
    starts = np.maximum.accumulate(np.where(frames == 0, index, 0))
    if not (np.array_equal(frames, index - starts) and np.array_equal(ids, ids[starts])):
        return None
    bounds = np.flatnonzero(frames == 0).tolist() + [frames.size]
    run_ids = ids[bounds[:-1]].tolist()
    if len(set(run_ids)) != len(run_ids) or max(map(len, run_ids)) >= _ID_BYTES:
        return None
    scores = table["scores"]
    if not (scores.min() >= 0.0 and scores.max() <= 1.0):  # False for NaN
        return None
    return [
        ScoreTrack(
            scores=scores[start:stop].T,
            hop_seconds=hop,
            class_names=class_names,
            clip_id=clip.decode("latin-1"),  # numpy encodes an S field in Latin-1
        )
        for clip, start, stop in zip(run_ids, bounds, bounds[1:])
    ]


def _score_lines(body, first_line: int, path, hop: float, class_names) -> list[ScoreTrack]:
    """Score-CSV body parsed line by line, raising at the first bad line."""
    rows: dict[str, list[tuple[int, list[float]]]] = {}
    order: list[str] = []
    for i, line in enumerate(body, start=first_line):
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
                raise ScoreOutOfRangeError(
                    f"score {v} out of [0,1]", path=path, line=i
                )
        if clip not in rows:
            rows[clip] = []
            order.append(clip)
        expected = len(rows[clip])
        if frame != expected:
            raise NonContiguousFramesError(
                f"clip {clip!r}: expected frame {expected}, got {frame}",
                path=path, line=i,
            )
        rows[clip].append((frame, values))

    tracks = []
    for clip in order:
        mat = np.array([v for _, v in rows[clip]], dtype=np.float64).T
        tracks.append(
            ScoreTrack(
                scores=mat, hop_seconds=hop, class_names=class_names, clip_id=clip
            )
        )
    return tracks


def write_scores(tracks: Sequence[ScoreTrack], path) -> None:
    """Write score tracks in the CSV layout read by ``read_scores``."""
    if not tracks:
        raise InvalidParameterError("need at least one track")
    hop = tracks[0].hop_seconds
    names = tracks[0].class_names
    for tr in tracks:
        if tr.hop_seconds != hop or tr.class_names != names:
            raise InvalidParameterError(
                "all tracks must share hop_seconds and class names"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# hop_seconds={hop:.9g}\n")
        fh.write("clip_id,frame," + ",".join(names) + "\n")
        for tr in tracks:
            # one %-format per clip; "%.6f" spells each value as f"{v:.6f}" does
            row = tr.clip_id.replace("%", "%%") + ",%d" + ",%.6f" * len(names) + "\n"
            table = np.hstack([np.arange(tr.n_frames)[:, None], tr.scores.T])
            fh.write((row * tr.n_frames) % tuple(table.ravel().tolist()))
