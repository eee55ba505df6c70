"""File formats shared by the pipelines.

Events are DCASE-style TSV (filename/onset/offset/event_label), frame
scores are CSV with a hop_seconds comment line, durations are plain
clip_id<TAB>seconds text, and class maps are source<TAB>target lines.
Everything is UTF-8 with LF line endings; readers reject malformed input
with a line-numbered error rather than silently accepting part of a file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import atomic_open
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
# The characters str.splitlines splits a line at, so no field may hold one.
_LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def _splits(text: str, separator: str) -> bool:
    """Whether reading lines, then fields at ``separator``, would split ``text``."""
    return separator in text or not _LINE_BREAKS.isdisjoint(text)


def _refuse_split(what: str, texts, separator: str) -> None:
    """Raise InvalidParameterError for the first text its reader would split."""
    for text in texts:
        if _splits(text, separator):
            raise InvalidParameterError(
                f"{what} {text!r} holds {separator!r} or a line break, "
                "which would split its row when the file is read"
            )


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
    """Write events as TSV, sorted by (clip, onset, class).

    A clip id or class holding a TAB or a line break is an
    ``InvalidParameterError``, raised before ``path`` is opened.
    """
    rows = sorted(events, key=lambda e: (e.clip_id, e.onset_s, e.class_name))
    _refuse_split("clip id", [e.clip_id for e in rows], "\t")
    _refuse_split("class", [e.class_name for e in rows], "\t")
    with atomic_open(path) as fh:
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
    with atomic_open(path) as fh:
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

    The file's bytes are parsed in numpy passes when its scores are fixed
    decimals (``_score_table``); any other file is read again line by line,
    which gives the same tracks or the line-numbered error.
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


_BLOCK_BYTES = 1 << 19  # bytes per numpy pass over the file, its row tails or its ids
_FRAME_DIGITS = 16  # a frame of more digits is left to the line reader


def _score_table(path) -> list[ScoreTrack] | None:
    """Score CSV parsed from its bytes in numpy passes over blocks of rows.

    Returns None, for the line-by-line reader to raise the line-numbered
    error or to accept what this pass does not take, unless: the file is
    UTF-8 and ends in LF; its header is valid; every non-empty row is
    ``id,frame,s1,...,sK`` with ASCII digits for the frame and K scores in
    [0, 1] written as fixed decimals of one width (as ``%.nf`` writes them,
    1 <= n <= 15); no id or header line holds a comma or line break of its
    own; and every clip's frames run 0..n-1 in a single block of rows.
    The scores, frames and the commas around them are checked byte by byte,
    so only the header and the ids are left to be checked as text.
    """
    data = Path(path).read_bytes()
    if not data.endswith(b"\n"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.concatenate([
        np.flatnonzero(buf[i : i + _BLOCK_BYTES] == ord("\n")) + i
        for i in range(0, buf.size, _BLOCK_BYTES)
    ])
    try:
        hop, class_names, n_read = _score_header(_decoded_lines(data, ends), path)
    except (ParseError, ValueError):  # ValueError: also a bad UTF-8 byte
        return None
    k = len(class_names)
    starts, ends = ends[n_read - 1 : -1] + 1, ends[n_read:]
    keep = ends > starts  # empty rows are skipped
    starts, ends = starts[keep], ends[keep]
    if not starts.size:
        return []
    # The layout of every row's K scores is that of the first row's last one.
    row = data[starts[0] : ends[0]]
    field = row[row.rfind(b",") + 1 :]
    point, width = field.find(b"."), len(field) + 1  # a field and its comma or LF
    if not (point >= 1 and 1 <= width - point - 2 <= 15 and width <= 20):
        return None
    tail_starts = ends + 1 - k * width
    # Room for an id, a comma, a frame digit and a comma before the scores.
    # The header takes at least 30 bytes, so every frame window below starts
    # inside the file.
    if not (tail_starts - starts >= 3).all():
        return None
    tails = sliding_window_view(buf, k * width)
    heads = sliding_window_view(buf, _FRAME_DIGITS + 1)
    scores = np.empty((starts.size, k))
    frames, id_ends = np.empty_like(starts), np.empty_like(starts)
    step = max(1, _BLOCK_BYTES // (k * width))
    for r0 in range(0, starts.size, step):
        at = tail_starts[r0 : r0 + step]
        values = _fixed_decimals(tails[at], k, point)
        parsed = _frame_numbers(heads[at - 1 - _FRAME_DIGITS])
        if values is None or parsed is None or not values.max() <= 1.0:
            return None
        scores[r0 : r0 + step] = values
        frames[r0 : r0 + step], n_digits = parsed
        id_ends[r0 : r0 + step] = at - 2 - n_digits
    # A block starts at each frame 0, its frames count up from there, and
    # each of its rows holds the id of its first row.
    index = np.arange(frames.size)
    block_starts = np.maximum.accumulate(np.where(frames == 0, index, 0))
    id_lens = id_ends - starts
    if not (
        np.array_equal(frames, index - block_starts)
        and np.array_equal(id_lens, id_lens[block_starts])
        and _same_bytes(buf, starts, starts[block_starts], id_lens)
    ):
        return None
    bounds = np.flatnonzero(frames == 0).tolist() + [frames.size]
    try:
        clips = [data[starts[i] : id_ends[i]].decode("utf-8") for i in bounds[:-1]]
    except UnicodeDecodeError:
        return None
    if len(set(clips)) != len(clips) or any(_splits(clip, ",") for clip in clips):
        return None
    return [
        ScoreTrack(
            scores=scores[start:stop].T, hop_seconds=hop, class_names=class_names, clip_id=clip
        )
        for clip, start, stop in zip(clips, bounds, bounds[1:])
    ]


def _decoded_lines(data: bytes, ends):
    """The lines of ``data`` that end at the LF offsets ``ends``, decoded as read.

    A line that ``str.splitlines`` would split again is a ValueError.
    """
    start = 0
    for end in ends:
        line = data[start:end].decode("utf-8")
        if not _LINE_BREAKS.isdisjoint(line):
            raise ValueError("a line break besides LF")
        yield line
        start = end + 1


def _fixed_decimals(tails: np.ndarray, k: int, point: int) -> np.ndarray | None:
    """The (rows, K) values of byte rows of K fixed-decimal fields, or None.

    Each row holds K fields of one width: ``point`` digits, ".", one or
    more digits, then "," (LF after the last field). A value is its digits
    read as one int64, divided once by 10**places. For a value below 2 at
    up to 15 places, both are doubles exactly (the integer is below
    2 * 10**15 < 2**53), so the one rounding of the division gives the
    bits that ``float`` gives the text.
    """
    width = tails.shape[1] // k
    lo, hi = np.full(width, ord("0"), np.uint8), np.full(width, ord("9"), np.uint8)
    lo[point] = hi[point] = ord(".")
    lo[-1] = hi[-1] = ord(",")
    lo, hi = np.tile(lo, k), np.tile(hi, k)
    lo[-1] = hi[-1] = ord("\n")
    offsets = tails - lo  # a digit's value; a byte off the pattern wraps above hi - lo
    if not (offsets <= hi - lo).all():
        return None
    places = offsets.reshape(-1, width).T.copy()  # one contiguous row per byte of a field
    mantissa = places[0].astype(np.int64)
    for j in [*range(1, point), *range(point + 1, width - 1)]:
        mantissa *= 10
        mantissa += places[j]
    return (mantissa / 10.0 ** (width - point - 2)).reshape(len(tails), k)


def _frame_numbers(heads: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The frames and their digit counts in rows that end ``,<frame>,``, or None.

    Each row of ``heads`` is the _FRAME_DIGITS bytes before a row's first
    score, then the comma before that score. The frame is the run of ASCII
    digits that ends the row, and the byte before the run must be a comma.
    """
    digits = heads[:, :-1] - ord("0")  # a byte below "0" wraps above 9
    n_digits = np.argmin(digits[:, ::-1] <= 9, axis=1)  # 0 when every byte is a digit
    if not (
        n_digits.min() >= 1
        and (heads[:, -1] == ord(",")).all()
        and (heads[np.arange(len(heads)), _FRAME_DIGITS - 1 - n_digits] == ord(",")).all()
    ):
        return None
    frames = np.zeros(len(heads), dtype=np.int64)
    for j in range(_FRAME_DIGITS - n_digits.max(), _FRAME_DIGITS):
        frames *= 10
        frames += np.where(j >= _FRAME_DIGITS - n_digits, digits[:, j], 0)
    return frames, n_digits


def _same_bytes(buf: np.ndarray, starts, refs, lens) -> bool:
    """Whether ``buf[s : s + n] == buf[r : r + n]`` for every (s, r, n)."""
    step = max(1, _BLOCK_BYTES // max(1, int(lens.max())))
    for r0 in range(0, len(lens), step):
        block = lens[r0 : r0 + step]
        shortest, longest = int(block.min()), int(block.max())
        for n in [shortest] if shortest == longest else np.unique(block).tolist():
            if n:
                rows = np.flatnonzero(block == n) + r0
                windows = sliding_window_view(buf, n)
                if not np.array_equal(windows[starts[rows]], windows[refs[rows]]):
                    return False
    return True


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
    """Write score tracks in the CSV layout read by ``read_scores``.

    A clip id or class name holding a comma or a line break is an
    ``InvalidParameterError``, raised before ``path`` is opened.
    """
    if not tracks:
        raise InvalidParameterError("need at least one track")
    hop = tracks[0].hop_seconds
    names = tracks[0].class_names
    for tr in tracks:
        if tr.hop_seconds != hop or tr.class_names != names:
            raise InvalidParameterError(
                "all tracks must share hop_seconds and class names"
            )
    _refuse_split("clip id", [tr.clip_id for tr in tracks], ",")
    _refuse_split("class name", names, ",")
    with atomic_open(path) as fh:
        fh.write(f"# hop_seconds={hop:.9g}\n")
        fh.write("clip_id,frame," + ",".join(names) + "\n")
        for tr in tracks:
            # one %-format per clip; "%.6f" spells each value as f"{v:.6f}" does
            row = tr.clip_id.replace("%", "%%") + ",%d" + ",%.6f" * len(names) + "\n"
            table = np.hstack([np.arange(tr.n_frames)[:, None], tr.scores.T])
            fh.write((row * tr.n_frames) % tuple(table.ravel().tolist()))
