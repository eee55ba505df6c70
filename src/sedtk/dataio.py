"""File formats shared by the pipelines.

Events are DCASE-style TSV (filename/onset/offset/event_label), frame
scores are CSV with a hop_seconds comment line, durations are plain
clip_id<TAB>seconds text, and class maps are source<TAB>target lines.
Everything is UTF-8 with LF line endings; readers reject malformed input
with a line-numbered error rather than silently accepting part of a file.
"""

from __future__ import annotations

import warnings
from itertools import repeat
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

def _float(text: str, what: str, path, line_no: int) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(f"bad {what}: {text!r}", path=path, line=line_no) from exc


def read_annotations(path) -> AnnotationSet:
    """Parse an event TSV into an AnnotationSet (durations left empty)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].rstrip("\n") != EVENT_HEADER:
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
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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
        if not value > 0:
            raise ParseError(f"duration must be > 0, got {value}", path=path, line=i)
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
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    hop = None
    header_idx = None
    for i, line in enumerate(lines):
        if line.startswith("#"):
            text = line.lstrip("#").strip()
            if text.startswith("hop_seconds="):
                hop = _float(text.split("=", 1)[1], "hop_seconds", path, i + 1)
                if not 0 < hop < float("inf"):
                    raise ParseError(
                        f"hop_seconds must be finite and > 0, got {hop}", path=path, line=i + 1
                    )
        elif line.strip():
            header_idx = i
            break
    if hop is None:
        raise ParseError("missing '# hop_seconds=<v>' comment", path=path, line=1)
    if header_idx is None:
        raise ParseError("missing header row", path=path, line=len(lines))
    header = lines[header_idx].split(",")
    if len(header) < 3 or header[:2] != ["clip_id", "frame"] or len(set(header)) < len(header):
        raise ParseError(
            "header must be clip_id,frame,<distinct class names>",
            path=path, line=header_idx + 1,
        )
    class_names = tuple(header[2:])
    body = lines[header_idx + 1 :]
    tracks = _score_columns(body, hop, class_names)
    if tracks is None:
        tracks = _score_lines(body, header_idx + 2, path, hop, class_names)
    return tracks


def _score_columns(body, hop: float, class_names) -> list[ScoreTrack] | None:
    """Score-CSV body parsed as columns in one numpy pass.

    Returns None, for ``_score_lines`` to raise the line-numbered error or
    to accept what numpy's stricter number syntax refused, unless every row
    has 2 + K fields, an integer frame and K scores in [0, 1], and every
    clip's frames run 0..n-1 in a single block of rows.
    """
    rows = list(filter(str.strip, body))
    if not rows:
        return []
    k = len(class_names)
    # usecols ignores fields past the last one it names, and loadtxt rejects a
    # row that is short; so with the comma total right, every row has 2 + K.
    if sum(map(str.count, rows, repeat(","))) != len(rows) * (1 + k):
        return None
    dtype = [("frame", np.int64), ("scores", np.float64, (k,))]
    try:
        # numpy 1.23-2.x reads a frame like "3.0" or "2.9" through float() and
        # truncates it, with only a DeprecationWarning; int() rejects both.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(
                rows, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                usecols=range(1, 2 + k),
            )
    except (ValueError, DeprecationWarning):
        return None
    # A block starts at each frame 0, and its frames count up from there.
    frames = table["frame"]
    index = np.arange(len(rows))
    starts = np.maximum.accumulate(np.where(frames == 0, index, 0))
    if not np.array_equal(frames, index - starts):
        return None
    bounds = np.flatnonzero(frames == 0).tolist() + [len(rows)]
    run_clips = [rows[start].partition(",")[0] for start in bounds[:-1]]
    if len(set(run_clips)) != len(run_clips):
        return None
    for clip, start, stop in zip(run_clips, bounds, bounds[1:]):
        if not all(map(str.startswith, rows[start:stop], repeat(clip + ","))):
            return None
    scores = table["scores"]
    if not (scores.min() >= 0.0 and scores.max() <= 1.0):  # False for NaN
        return None
    return [
        ScoreTrack(
            scores=scores[start:stop].T,
            hop_seconds=hop,
            class_names=class_names,
            clip_id=clip,
        )
        for clip, start, stop in zip(run_clips, bounds, bounds[1:])
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
