"""Command-line pipeline over the library.

Subcommands:
    features     WAV directory -> log-mel batch (.fmt)
    stats        .fmt batch -> per-instance statistic vectors (CSV)
    augment      .fmt batch -> feature-statistics-mixed batch (.fmt)
    postprocess  frame-score CSV -> event TSV via change-point bounding boxes
    tune-sebb    grid-search the post-processing config against truth
    evaluate     event-level PSDS and/or segment-level mpAUC reports

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr, first a ``config:`` line of every option that has a value; stdout
carries only the report. An option with a default takes its flag, else its
line of the key=value ``--config file`` (every subcommand but tune-sebb),
else its default; a ``--config`` key naming no such option is a usage
error. Only ``augment`` draws random numbers, seeded through its ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import dataio, metrics, mixstyle, sebb, stats
from .core import DomainTag, RandomSource, atomic_open, make_batch, read_fmt, write_fmt
from .errors import (
    ConfigInvalidError,
    EmptyAudioError,
    InvalidParameterError,
    ParseError,
    SedtkError,
    UsageError,
)
from .frontend import MelConfig, log_mel, read_wav, resample_to_mono_16k

_DOMAINS = [name.lower() for name in DomainTag.__members__]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors become exit code 1, not 2
        raise UsageError(message)

    def add_argument(self, *args, default=None, **kwargs):
        """Add an argument and list it, in order, in the namespace's ``options``.

        Argparse leaves an option it is not given None; ``_resolve`` then
        sets it from its ``--config`` line, else from ``default``.
        """
        action = super().add_argument(*args, **kwargs)
        if action.default is not argparse.SUPPRESS:  # not --help
            if default is not None:
                action.help = f"{action.help or ''} (default {default})".lstrip()
            options = self.get_default("options") or []
            self.set_defaults(options=[*options, (action, default)])
        return action


def _read_config(path) -> dict[str, tuple[str, str]]:
    """Map each key of a key=value file to its value and its ``path:line``."""
    values: dict[str, tuple[str, str]] = {}
    for i, line in enumerate(dataio._read_lines(path), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{i}: config line must be key=value, got {line!r}")
        key, val = (part.strip() for part in stripped.split("=", 1))
        if key in values:
            raise UsageError(f"{path}:{i}: key {key!r} is already set at {values[key][1]}")
        values[key] = (val, f"{path}:{i}")
    return values


def _cast(cast, key: str, value: str, where: str):
    try:
        return cast(value)
    except ValueError:
        raise UsageError(
            f"{where}: {key}={value!r} is not a valid {cast.__name__}"
        ) from None


def _resolve(args) -> None:
    """Set every option that has a default from its flag, else its ``--config``
    line, else its default, cast by its flag's type and checked against its
    choices. ``args.at`` maps each to where it was set, as a message prefix:
    ``--flag: ``, ``path:line: `` or ``""``.
    """
    cfg = _read_config(args.config) if getattr(args, "config", None) else {}
    settable = {action.dest: (action, default) for action, default in args.options
                if default is not None}
    for key, (_, where) in cfg.items():
        if key not in settable:
            raise UsageError(f"{where}: unknown key {key!r}, expected one of {list(settable)}")
    args.at = {}
    for key, (action, default) in settable.items():
        if getattr(args, key) is not None:
            args.at[key] = f"{action.option_strings[0]}: "
        elif key in cfg:
            value, where = cfg[key]
            setattr(args, key, _cast(action.type or str, key, value, where))
            if action.choices is not None and getattr(args, key) not in action.choices:
                raise UsageError(
                    f"{where}: {key}={value!r} is not one of {', '.join(action.choices)}"
                )
            args.at[key] = f"{where}: "
        else:
            setattr(args, key, default)
            args.at[key] = ""


def _check(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a value it rejects is a UsageError prefixed by ``where``."""
    try:
        return build(*args, **kwargs)
    except (ConfigInvalidError, InvalidParameterError) as exc:
        raise UsageError(f"{where}{exc}") from None


def _log_config(args) -> None:
    """Every option but ``--config`` that has a value, in declaration order."""
    pairs = " ".join(
        f"{'in' if action.option_strings[0] == '--in' else action.dest}={value}"
        for action, _ in args.options
        if action.dest != "config" and (value := getattr(args, action.dest)) is not None
    )
    print(f"config: subcommand={args.command} {pairs}", file=sys.stderr)


# Each CsebbConfig field and its default; postprocess's option for a field has its name.
_CSEBB_DEFAULTS = {
    key: getattr(sebb.CsebbConfig, key) for key in sebb.CsebbConfig.__dataclass_fields__
}


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value file setting any option with a default")

    parser = _Parser(prog="sedtk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", parents=[common], help="extract log-mel features")
    p.add_argument("--in", dest="in_dir", required=True, help="directory of WAV files")
    p.add_argument("--out", required=True, help="output .fmt path")
    p.add_argument("--n-mels", dest="n_mels", type=int, default=MelConfig.n_mels)
    p.add_argument("--pad-seconds", dest="pad_seconds", type=float,
                   default=MelConfig.pad_to_seconds)
    p.add_argument("--domain", choices=_DOMAINS, default="desed",
                   help="domain tag applied to every clip")

    p = sub.add_parser("stats", parents=[common], help="export statistic vectors")
    p.add_argument("--in", dest="in_fmt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--which", choices=["frequency", "channel"], default="frequency")

    p = sub.add_parser("augment", parents=[common], help="mix feature statistics")
    p.add_argument("--in", dest="in_fmt", required=True)
    p.add_argument("--out", required=True)
    mix = mixstyle.MixStyleConfig
    p.add_argument("--p", type=float, default=mix.p, help="application probability")
    p.add_argument("--alpha", type=float, default=mix.alpha, help="Beta coefficient")
    p.add_argument("--eps", type=float, default=mix.eps, help="division guard")
    p.add_argument("--seed", type=int, default=0, help="random seed")

    p = sub.add_parser("postprocess", parents=[common], help="scores -> events")
    p.add_argument("--scores", required=True, help="frame-score CSV")
    p.add_argument("--out", required=True, help="output event TSV")
    for flag, key in [("--filter-len", "filter_len"), ("--merge-abs", "merge_threshold_abs"),
                      ("--merge-rel", "merge_threshold_rel"), ("--boundary", "boundary_threshold")]:
        default = _CSEBB_DEFAULTS[key]
        p.add_argument(flag, dest=key, type=type(default), default=default)
    p.add_argument("--threshold", type=float, default=0.5,
                   help="confidence threshold for every class")
    p.add_argument("--thresholds-file", dest="thresholds_file",
                   help="class<TAB>threshold lines overriding --threshold per class")

    p = sub.add_parser("tune-sebb", help="grid-search post-processing")
    p.add_argument("--scores", required=True)
    p.add_argument("--truth", required=True, help="event TSV ground truth")
    p.add_argument("--durations", required=True, help="clip_id<TAB>seconds file")
    p.add_argument("--grid", required=True, help="key=v1,v2,... file of grid axes")
    p.add_argument("--out", help="also write the best config here")

    p = sub.add_parser("evaluate", parents=[common], help="compute metrics")
    p.add_argument("--events", help="detected event TSV")
    p.add_argument("--truth", help="ground-truth event TSV")
    p.add_argument("--durations")
    p.add_argument("--psds", action="store_true", help="event-level PSDS")
    p.add_argument("--segscores", help="segment-score CSV")
    p.add_argument("--segtruth", help="segment soft/hard label CSV")
    p.add_argument("--mpauc", action="store_true", help="segment-level macro pAUC")
    p.add_argument("--max-fpr", dest="max_fpr", type=float, default=0.1)
    p.add_argument("--class-map", dest="class_map",
                   help="source<TAB>target file renaming classes before --psds")
    p.add_argument("--out", help="also write the report here")
    return parser


def cmd_features(args) -> int:
    _check(args.at["n_mels"], MelConfig, n_mels=args.n_mels)
    mel_cfg = _check(
        args.at["pad_seconds"], MelConfig, n_mels=args.n_mels, pad_to_seconds=args.pad_seconds
    )
    wavs = sorted(Path(args.in_dir).glob("*.wav"))
    if not wavs:
        raise SedtkError(f"no .wav files in {args.in_dir}")
    maps = []
    for wav in wavs:
        try:  # read_wav's ParseError names the file already
            maps.append(log_mel(resample_to_mono_16k(read_wav(wav)), mel_cfg))
        except (ConfigInvalidError, EmptyAudioError) as exc:
            raise SedtkError(f"{wav}: {exc}") from exc
        if maps[-1].shape != maps[0].shape:
            raise SedtkError(
                f"{wav}: feature map has shape {maps[-1].shape}, but {wavs[0]} has "
                f"{maps[0].shape}; pad_seconds={args.pad_seconds} pads shorter clips "
                "but never cuts longer ones"
            )
    batch = make_batch(maps, [DomainTag[args.domain.upper()]] * len(maps))
    write_fmt(batch, args.out)
    print(f"wrote {len(maps)} feature maps to {args.out}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    batch = read_fmt(args.in_fmt)
    n = stats.export_stats(batch, args.which, args.out)
    print(f"wrote {n} statistic rows to {args.out}", file=sys.stderr)
    return 0


def cmd_augment(args) -> int:
    for key in ("p", "alpha", "eps"):
        _check(args.at[key], mixstyle.MixStyleConfig, **{key: getattr(args, key)})
    mix_cfg = mixstyle.MixStyleConfig(p=args.p, alpha=args.alpha, eps=args.eps)
    rng = _check(args.at["seed"], RandomSource, args.seed)
    batch = read_fmt(args.in_fmt)
    try:
        out = mixstyle.freq_mixstyle(batch, mix_cfg, rng)
    except InvalidParameterError as exc:  # the order of the file's domain tags
        raise ParseError(str(exc), path=args.in_fmt) from None
    write_fmt(out, args.out)
    print(f"wrote augmented batch to {args.out}", file=sys.stderr)
    return 0


def cmd_postprocess(args) -> int:
    for key in _CSEBB_DEFAULTS:
        _check(args.at[key], sebb.CsebbConfig, **{key: getattr(args, key)})
    csebb = sebb.CsebbConfig(**{key: getattr(args, key) for key in _CSEBB_DEFAULTS})
    # threshold_events checks every threshold before it looks at a box.
    _check(args.at["threshold"], sebb.threshold_events, [], {}, default=args.threshold)
    pairs: dict[str, tuple[str, int]] = {}
    if args.thresholds_file:
        try:
            pairs = dataio._read_tab_pairs(args.thresholds_file, "class<TAB>threshold")
        except ParseError as exc:
            raise UsageError(str(exc)) from None
    thresholds: dict[str, float] = {}
    for cls, (value, i) in pairs.items():
        where = f"{args.thresholds_file}:{i}"
        thresholds[cls] = _cast(float, cls, value, where)
        _check(f"{where}: ", sebb.threshold_events, [], {cls: thresholds[cls]})

    def clip_events(tr):  # each clip is detected as it is read; its scores are not kept
        boxes = sebb.detect_sebbs(tr, csebb)
        return tr.class_names, sebb.threshold_events(boxes, thresholds, tr.clip_id, args.threshold)

    # The class check waits for the whole file: a data error in it comes first.
    per_clip = dataio.read_scores(args.scores, each=clip_events)
    for cls, (_, i) in pairs.items():
        if cls not in per_clip[0][0]:
            raise UsageError(
                f"{args.thresholds_file}:{i}: class {cls!r} is not a class of {args.scores}"
            )
    events = [event for _, kept in per_clip for event in kept]
    dataio.write_events(events, args.out)
    print(f"wrote {len(events)} events to {args.out}", file=sys.stderr)
    return 0


def _parse_grid(path) -> dict[str, list]:
    """Axes of a ``key=v1,v2,...`` grid file; every value must make a valid CsebbConfig."""
    grid: dict[str, list] = {}
    for key, (values, where) in _read_config(path).items():
        if key not in _CSEBB_DEFAULTS:
            raise UsageError(
                f"{where}: unknown grid key {key!r}, expected one of {list(_CSEBB_DEFAULTS)}"
            )
        cast = type(_CSEBB_DEFAULTS[key])
        grid[key] = [_cast(cast, key, v, where) for v in values.split(",") if v.strip()]
        if not grid[key]:
            raise UsageError(f"{where}: grid axis {key} needs at least one value")
        for value in grid[key]:
            _check(f"{where}: ", sebb.CsebbConfig, **{key: value})
    return grid


def cmd_tune_sebb(args) -> int:
    grid = _parse_grid(args.grid)
    tracks = dataio.read_scores(args.scores)
    annos = dataio.read_annotations(args.truth)
    durations = dataio.read_durations(args.durations)
    truth = metrics.AnnotationSet(events=annos.events, clip_durations=durations)
    best = sebb.tune_csebb(tracks, truth, grid)
    lines = [
        f"filter_len={best.filter_len}",
        f"merge_threshold_abs={best.merge_threshold_abs:.9g}",
        f"merge_threshold_rel={best.merge_threshold_rel:.9g}",
        f"boundary_threshold={best.boundary_threshold:.9g}",
    ]
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(report)
    return 0


def _segment_arrays(score_tracks, truth_tracks, scores_path, truth_path):
    """Aligned (cells, K) segment scores and bool labels, and the K score classes.

    Both files must hold the same clips with the same frame counts and hop,
    and every score class must be a truth class; a breach is a ``ParseError``
    on ``scores_path``. Cells run over clips in sorted order, then frames.
    """
    classes, truth_classes = score_tracks[0].class_names, truth_tracks[0].class_names
    hop, truth_hop = score_tracks[0].hop_seconds, truth_tracks[0].hop_seconds
    scores = {tr.clip_id: tr.scores.T for tr in score_tracks}
    soft = {tr.clip_id: tr.scores.T for tr in truth_tracks}
    breaches = [f"hop_seconds={hop:.9g} but {truth_hop:.9g}"] if hop != truth_hop else []
    breaches += [
        f"clip {clip!r} has {n} frames here but {m}"
        for clip in sorted(scores.keys() | soft.keys())
        if (n := len(scores.get(clip, ()))) != (m := len(soft.get(clip, ())))
    ]
    breaches += [f"class {c!r} is not a class" for c in classes if c not in truth_classes]
    if breaches:
        raise ParseError(f"{breaches[0]} in {truth_path}", path=scores_path)
    labels = metrics.segmentize(soft, truth_classes)
    columns = [truth_classes.index(cls) for cls in classes]
    seg_scores = np.concatenate([scores[clip] for clip in labels])
    return seg_scores, np.concatenate([g[:, columns] for g in labels.values()]), classes


def cmd_evaluate(args) -> int:
    if not 0 < args.max_fpr <= 1:  # False for NaN
        at = args.at["max_fpr"]  # the flag names itself; a --config line names its key
        name = at.removesuffix(": ") if at.startswith("--") else f"{at}max_fpr"
        raise UsageError(f"{name} must be in (0, 1], got {args.max_fpr}")
    if args.class_map and not args.psds:
        raise UsageError("--class-map applies to --psds only")
    class_map = dataio.read_class_map(args.class_map) if args.class_map else None
    lines = []
    psds_value = None
    mpauc_value = None

    if args.psds:
        if not (args.events and args.truth and args.durations):
            raise UsageError("--psds needs --events, --truth and --durations")
        dets = dataio.read_annotations(args.events).events
        annos = dataio.read_annotations(args.truth).events
        if class_map:
            dets = dataio.apply_class_map(dets, class_map)
            annos = dataio.apply_class_map(annos, class_map)
        durations = dataio.read_durations(args.durations)
        truth = metrics.AnnotationSet(events=annos, clip_durations=durations)
        psds_cfg = metrics.PsdsConfig()
        curve = metrics.psd_roc([dets], truth, psds_cfg)
        psds_value = metrics.psds(curve, psds_cfg)
        lines.append(f"psds={psds_value:.6f}")

    if args.mpauc:
        if not (args.segscores and args.segtruth):
            raise UsageError("--mpauc needs --segscores and --segtruth")
        scores, labels, classes = _segment_arrays(
            dataio.read_scores(args.segscores), dataio.read_scores(args.segtruth),
            args.segscores, args.segtruth,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = metrics.mpauc_report(scores, labels, classes, args.max_fpr)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        mpauc_value = report["mpauc"]
        lines.append(f"mpauc={mpauc_value:.6f}")
        if report["excluded"]:
            lines.append("mpauc_excluded=" + ",".join(report["excluded"]))

    if psds_value is not None and mpauc_value is not None:
        lines.append(f"joint={metrics.joint_score(psds_value, mpauc_value):.6f}")
    if not lines:
        raise UsageError("nothing to evaluate: pass --psds and/or --mpauc")

    report_text = "\n".join(lines) + "\n"
    sys.stdout.write(report_text)
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(report_text)
    return 0


_HANDLERS = {
    "features": cmd_features,
    "stats": cmd_stats,
    "augment": cmd_augment,
    "postprocess": cmd_postprocess,
    "tune-sebb": cmd_tune_sebb,
    "evaluate": cmd_evaluate,
}


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        _resolve(args)
        _log_config(args)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SedtkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
