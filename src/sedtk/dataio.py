"""File formats shared by the pipelines.

Events are DCASE-style TSV (filename/onset/offset/event_label), frame
scores are CSV with a hop_seconds comment line, durations are plain
clip_id<TAB>seconds text, and class maps are source<TAB>target lines.
Everything is UTF-8 with LF line endings; readers reject malformed input
with a line-numbered error rather than silently accepting part of a file.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Callable, Mapping, Sequence

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


def _read_lines(path, data: bytes | None = None) -> list[str]:
    """The lines of a UTF-8 text file, or of its bytes, as ``str.splitlines`` splits them.

    A byte that is not UTF-8 is a ``ParseError`` on the line that holds it.
    """
    data = Path(path).read_bytes() if data is None else data
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
        raise ParseError(f"expected header {EVENT_HEADER!r}", path=path, line=1)
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
    """Parse source<TAB>target lines; '#' starts a comment.

    A chain is a ``ParseError`` at the line of the first source whose target
    is mapped on to another class.
    """
    lines = _read_tab_pairs(path, "source<TAB>target")
    pairs = {src: dst for src, (dst, _) in lines.items()}
    chain = _chain(pairs)
    if chain is not None:
        src, message = chain
        raise ParseError(
            f"{message}; {pairs[src]!r} is mapped at line {lines[pairs[src]][1]}",
            path=path, line=lines[src][1],
        )
    return pairs


def _chain(pairs: Mapping[str, str]) -> tuple[str, str] | None:
    """The first source whose target is mapped on to another class, with a message."""
    for src, dst in pairs.items():
        if dst in pairs and pairs[dst] != dst:
            return src, f"class map is not chain-free: {src!r} -> {dst!r} -> {pairs[dst]!r}"
    return None


def apply_class_map(events: Sequence[Event], mapping: Mapping[str, str]) -> list[Event]:
    """Replace source classes by their super-class; others pass through."""
    chain = _chain(mapping)
    if chain is not None:
        raise InvalidParameterError(chain[1])
    return [
        Event(
            clip_id=e.clip_id,
            class_name=mapping.get(e.class_name, e.class_name),
            onset_s=e.onset_s,
            offset_s=e.offset_s,
        )
        for e in events
    ]


def read_scores(path, each: Callable[[ScoreTrack], object] | None = None) -> list:
    """Parse the frame-score CSV into one ScoreTrack per clip, or into ``each`` of each.

    Layout: a ``# hop_seconds=<v>`` comment line, a header
    ``clip_id,frame,<class...>``, then one row per (clip, frame) with the
    frames of each clip contiguous from 0. A clip's rows may come in
    several blocks as long as its frame numbers continue across them.
    Tracks come in the order of each clip's first row.

    The file is opened once. Its bytes are parsed in numpy passes when its
    scores are fixed decimals (``_score_table``); any other file is decoded
    again from its first byte and read line by line, which gives the same
    tracks or the line-numbered error. A file without rows after its header
    is a ``ParseError`` at its last line. A handle that cannot seek (a pipe)
    is read whole first, so that it can be read again.

    ``each`` gets each track as soon as its clip's rows are parsed, and the
    list of its results is returned: a caller that keeps only these never
    holds the score table. If the byte pass gives up part way, its results
    are dropped and ``each`` runs again on the line reader's tracks, so it
    may see a clip twice and must not depend on side effects.
    """
    each = each or (lambda track: track)
    with open(path, "rb") as fh:
        if not fh.seekable():
            fh = io.BytesIO(fh.read())
        results = _score_table(fh, path, each)
        if results is None:
            fh.seek(0)
            lines = iter(_read_lines(path, fh.read()))
            hop, class_names, n_read = _score_header(lines, path)
            results = [each(t) for t in _score_lines(lines, n_read + 1, path, hop, class_names)]
    return results


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


_BLOCK_BYTES = 1 << 19  # bytes of the file read and parsed per chunk
_FRAME_DIGITS = 16  # a frame of this many digits or more is left to the line reader


def _score_table(fh, path, each: Callable[[ScoreTrack], object]) -> list | None:
    """``each`` of every track of the score CSV parsed from the bytes of the
    seekable handle ``fh`` in numpy passes, one chunk of rows at a time; a
    track goes to ``each`` once the chunk of its clip's last row is parsed.

    Returns None, for the line-by-line reader to raise the line-numbered
    error or to accept what this pass does not take, unless: the file is
    UTF-8 and ends in LF; its header is valid; every non-empty row is
    ``id,frame,s1,...,sK`` with ASCII digits for the frame and K scores in
    [0, 1] written as fixed decimals of one width (as ``%.nf`` writes them,
    1 <= n <= 15); no row is longer than _BLOCK_BYTES; no id or header line
    holds a comma or line break of its own; and every clip's frames run
    0..n-1 in a single block of rows. The scores, frames and the commas
    around them are checked byte by byte, so only the header and the ids
    are left to be checked as text. A file without rows is left to the
    line reader too, which knows the line to name in its error.
    """
    fh.seek(0)
    try:
        hop, class_names, _ = _score_header(_header_lines(fh), path)
    except (ParseError, ValueError):  # ValueError: also a bad UTF-8 byte
        return None
    k = len(class_names)
    buf = np.empty(_FRAME_DIGITS + _BLOCK_BYTES, np.uint8)
    results, seen, clip, rows_read = [], set(), None, []  # clip: that of the row before the chunk
    last_id, next_frame = b"", 0  # of the row before the chunk
    for chunk in _row_chunks(fh, buf):
        if chunk is None:
            return None
        starts, ends = chunk
        if clip is None:
            # The layout of every row's K scores is that of the first row's last one.
            row = buf[starts[0] : ends[0]].tobytes()
            field = row[row.rfind(b",") + 1 :]
            point, width = field.find(b"."), len(field) + 1  # a field and its comma or LF
            if not (point >= 1 and 1 <= width - point - 2 <= 15 and width <= 20):
                return None
            tails = sliding_window_view(buf, k * width)
        at = ends + 1 - k * width  # where each row's scores start
        if not (at - starts >= 3).all():
            return None
        values = _fixed_decimals(tails[at], k, point)
        parsed = _frame_numbers(buf, at - 1)
        if values is None or parsed is None or not values.max() <= 1.0:
            return None
        frames, n_digits = parsed
        # A block starts at each frame 0 and counts up from there; rows
        # before the chunk's first 0 continue the row before the chunk.
        # Each row of a block holds the id of the row before it.
        rows = np.arange(len(frames))
        block_starts = np.maximum.accumulate(np.where(frames == 0, rows, -next_frame))
        lens = at - 2 - n_digits - starts
        more = frames[1:] != 0
        if not (
            np.array_equal(frames, rows - block_starts)
            and np.array_equal(lens[1:][more], lens[:-1][more])
            and _same_bytes(buf, starts[1:][more], starts[:-1][more], lens[1:][more])
            and (frames[0] == 0 or buf[starts[0] : starts[0] + lens[0]].tobytes() == last_id)
        ):
            return None
        # A frame 0 ends the clip before it, whose track invariants are all checked.
        zeros = np.flatnonzero(frames == 0).tolist()
        head, *blocks = np.split(values, zeros)
        if len(head):
            rows_read.append(head)
        for i, block in zip(zeros, blocks):
            if clip is not None:
                results.append(each(_track(rows_read, hop, class_names, clip)))
            try:
                clip = buf[starts[i] : starts[i] + lens[i]].tobytes().decode("utf-8")
            except UnicodeDecodeError:
                return None
            if clip in seen or _splits(clip, ","):
                return None
            seen.add(clip)
            rows_read = [block]
        last_id, next_frame = buf[starts[-1] : starts[-1] + lens[-1]].tobytes(), frames[-1] + 1
    if clip is None:
        return None
    results.append(each(_track(rows_read, hop, class_names, clip)))
    return results


def _track(blocks: list[np.ndarray], hop: float, class_names, clip: str) -> ScoreTrack:
    """The track of a clip's (frames, K) row blocks: a view of a lone block, else a copy."""
    scores = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    scores.flags.writeable = False
    return ScoreTrack._view(scores.T, hop, class_names, clip)


def _header_lines(fh):
    """The LF-ended lines of ``fh``, decoded; any other line is a ValueError."""
    while line := fh.readline():
        text = line.decode("utf-8")
        if not text.endswith("\n") or not _LINE_BREAKS.isdisjoint(text[:-1]):
            raise ValueError("a line break besides LF, or no LF")
        yield text[:-1]


def _row_chunks(fh, buf: np.ndarray):
    """(starts, ends) of the non-empty rows of each chunk read into ``buf``.

    ``buf`` is _FRAME_DIGITS LFs, the byte before any row, then _BLOCK_BYTES
    to read into. The partial row after a chunk's last LF starts the next
    chunk. Yields None last if the file does not end in LF or a row does not
    fit in a chunk.
    """
    buf[:_FRAME_DIGITS] = ord("\n")
    filled = _FRAME_DIGITS
    while got := fh.readinto(memoryview(buf)[filled:]):
        filled += got
        ends = np.flatnonzero(buf[_FRAME_DIGITS:filled] == ord("\n")) + _FRAME_DIGITS
        starts = np.concatenate([[_FRAME_DIGITS], ends + 1])
        keep = ends > starts[:-1]  # empty rows are skipped
        if keep.any():
            yield starts[:-1][keep], ends[keep]
        rest = buf[starts[-1] : filled]
        buf[_FRAME_DIGITS : _FRAME_DIGITS + rest.size] = rest
        filled = _FRAME_DIGITS + rest.size
    if filled > _FRAME_DIGITS:
        yield None


def _fixed_decimals(tails: np.ndarray, k: int, point: int) -> np.ndarray | None:
    """The (rows, K) values of byte rows of K fixed-decimal fields, or None.

    Each row holds K fields of one width: ``point`` digits, ".", one or
    more digits, then "," (LF after the last field). A value is its digits
    read as one integer (int32 up to 9 digits, else int64), divided once by
    10**places. For a value below 2 at up to 15 places, both are doubles
    exactly (the integer is below 2 * 10**15 < 2**53), so the one rounding
    of the division gives the bits that ``float`` gives the text.
    """
    width = tails.shape[1] // k
    places = width - point - 2
    lo, hi = (  # a row's bytes with every digit "0", then "9"
        np.frombuffer((",".join([d * point + "." + d * places] * k) + "\n").encode(), np.uint8)
        for d in "09"
    )
    offsets = tails - lo  # a digit's value; a byte off the pattern wraps above hi - lo
    if not (offsets <= hi - lo).all():
        return None
    columns = offsets.reshape(-1, width)  # one row per field
    mantissa = columns[:, 0].astype(np.int32 if width - 2 <= 9 else np.int64)
    for j in [*range(1, point), *range(point + 1, width - 1)]:
        mantissa *= 10
        mantissa += columns[:, j]
    return (mantissa / 10.0**places).reshape(len(tails), k)


def _frame_numbers(buf: np.ndarray, commas: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The frames and their digit counts of rows that hold ``,<frame>`` before
    the comma at each of ``commas`` in ``buf``, or None.

    The frame is the run of 1 to _FRAME_DIGITS - 1 ASCII digits before the
    comma, scanned back a byte at a time for all rows at once until no
    row's run goes on; the byte before the run must be a comma.
    """
    going = buf[commas] == ord(",")  # a row without that comma reads no digit
    frames = np.zeros(len(commas), dtype=np.int64)
    n_digits = np.zeros(len(commas), dtype=np.int64)
    for step in range(_FRAME_DIGITS):
        digits = buf[commas - 1 - step] - np.uint8(ord("0"))  # a byte below "0" wraps above 9
        going &= digits <= 9
        if not going.any():
            break
        n_digits += going
        frames += np.multiply(digits, going, dtype=np.int64) * 10**step
    else:
        return None  # a run of _FRAME_DIGITS digits
    if not (n_digits.min() >= 1 and (buf[commas - 1 - n_digits] == ord(",")).all()):
        return None
    return frames, n_digits


def _same_bytes(buf: np.ndarray, starts, refs, lens) -> bool:
    """Whether ``buf[s : s + n] == buf[r : r + n]`` for every (s, r, n)."""
    for n in np.flatnonzero(np.bincount(lens)).tolist():  # each length, once
        if n:
            rows = lens == n
            windows = sliding_window_view(buf, n)
            if not np.array_equal(windows[starts[rows]], windows[refs[rows]]):
                return False
    return True


def _score_lines(body, first_line: int, path, hop: float, class_names) -> list[ScoreTrack]:
    """Score-CSV body parsed line by line, raising at the first bad line."""
    rows: dict[str, list[list[float]]] = {}  # each clip's rows, in the order of its first
    i = first_line - 1  # the last line read, also when the body is empty
    for i, line in enumerate(body, start=first_line):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2 + len(class_names):
            raise ParseError(f"expected {2 + len(class_names)} fields, got {len(parts)}",
                             path=path, line=i)
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
                f"clip {clip!r}: expected frame {expected}, got {frame}", path=path, line=i
            )
        rows[clip].append(values)
    if not rows:
        raise ParseError("no score rows after the header", path=path, line=i)
    return [ScoreTrack(np.array(values, dtype=np.float64).T, hop, class_names, clip)
            for clip, values in rows.items()]


def write_scores(tracks: Sequence[ScoreTrack], path) -> None:
    """Write score tracks in the CSV layout read by ``read_scores``.

    A clip id or class name holding a comma or a line break is an
    ``InvalidParameterError``, raised before ``path`` is opened.
    """
    if not tracks:
        raise InvalidParameterError("need at least one track")
    hop, names = tracks[0].hop_seconds, tracks[0].class_names
    for tr in tracks:
        if tr.hop_seconds != hop or tr.class_names != names:
            raise InvalidParameterError("all tracks must share hop_seconds and class names")
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
