"""Command-line pipeline over the library.

Subcommands:
    features     WAV directory -> log-mel batch (.fmt)
    stats        .fmt batch -> per-instance statistic vectors (CSV)
    augment      .fmt batch -> feature-statistics-mixed batch (.fmt)
    postprocess  frame-score CSV -> event TSV via change-point bounding boxes
    tune-sebb    grid-search the post-processing config against truth
    evaluate     event-level PSDS and/or segment-level mpAUC reports

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr; stdout carries only the report. Any flag may also be supplied via
``--config file`` holding key=value lines (explicit flags win). All
randomness is seeded through ``--seed``.
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

    def add_argument(self, *args, **kwargs):
        """Add an option; the parsed namespace's ``flags`` maps its dest to its first flag."""
        action = super().add_argument(*args, **kwargs)
        if action.option_strings:
            flags = self.get_default("flags") or {}
            self.set_defaults(flags={**flags, action.dest: action.option_strings[0]})
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


def _resolve(args, cfg: dict[str, tuple[str, str]], name: str, default, cast):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg:
        return _cast(cast, name, *cfg[name])
    return default


def _at(args, cfg: dict[str, tuple[str, str]], name: str) -> str:
    """Where option ``name`` was set, as a message prefix: ``--flag: ``, the
    ``path:line: `` of its ``--config`` line, or ``""`` for its default."""
    if getattr(args, name, None) is not None:
        return f"{args.flags[name]}: "
    return f"{cfg[name][1]}: " if name in cfg else ""


def _check(where: str, build, *args, **kwargs) -> None:
    """Call ``build``; a value it rejects is a UsageError prefixed by ``where``."""
    try:
        build(*args, **kwargs)
    except (ConfigInvalidError, InvalidParameterError) as exc:
        raise UsageError(f"{where}{exc}") from None


def _log_config(name: str, resolved: dict) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in resolved.items())
    print(f"config: subcommand={name} {pairs}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument("--config", help="key=value file supplying any flag")

    parser = _Parser(prog="sedtk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", parents=[common], help="extract log-mel features")
    p.add_argument("--in", dest="in_dir", required=True, help="directory of WAV files")
    p.add_argument("--out", required=True, help="output .fmt path")
    p.add_argument("--n-mels", dest="n_mels", type=int, default=None)
    p.add_argument("--pad-seconds", dest="pad_seconds", type=float, default=None)
    p.add_argument(
        "--domain", choices=_DOMAINS, default=None,
        help="domain tag applied to every clip (default desed)",
    )

    p = sub.add_parser("stats", parents=[common], help="export statistic vectors")
    p.add_argument("--in", dest="in_fmt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--which", choices=["frequency", "channel"], default=None)

    p = sub.add_parser("augment", parents=[common], help="mix feature statistics")
    p.add_argument("--in", dest="in_fmt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--p", type=float, default=None, help="application probability")
    p.add_argument("--alpha", type=float, default=None, help="Beta coefficient")
    p.add_argument("--eps", type=float, default=None, help="division guard")

    p = sub.add_parser("postprocess", parents=[common], help="scores -> events")
    p.add_argument("--scores", required=True, help="frame-score CSV")
    p.add_argument("--out", required=True, help="output event TSV")
    p.add_argument("--filter-len", dest="filter_len", type=int, default=None)
    p.add_argument("--merge-abs", dest="merge_threshold_abs", type=float, default=None)
    p.add_argument("--merge-rel", dest="merge_threshold_rel", type=float, default=None)
    p.add_argument("--boundary", dest="boundary_threshold", type=float, default=None)
    p.add_argument(
        "--threshold", type=float, default=None,
        help="confidence threshold for every class (default 0.5)",
    )
    p.add_argument(
        "--thresholds-file", dest="thresholds_file", default=None,
        help="class<TAB>threshold lines overriding --threshold per class",
    )

    p = sub.add_parser("tune-sebb", parents=[common], help="grid-search post-processing")
    p.add_argument("--scores", required=True)
    p.add_argument("--truth", required=True, help="event TSV ground truth")
    p.add_argument("--durations", required=True, help="clip_id<TAB>seconds file")
    p.add_argument("--grid", required=True, help="key=v1,v2,... file of grid axes")
    p.add_argument("--out", default=None, help="also write the best config here")

    p = sub.add_parser("evaluate", parents=[common], help="compute metrics")
    p.add_argument("--events", default=None, help="detected event TSV")
    p.add_argument("--truth", default=None, help="ground-truth event TSV")
    p.add_argument("--durations", default=None)
    p.add_argument("--psds", action="store_true", help="event-level PSDS")
    p.add_argument("--segscores", default=None, help="segment-score CSV")
    p.add_argument("--segtruth", default=None, help="segment soft/hard label CSV")
    p.add_argument("--mpauc", action="store_true", help="segment-level macro pAUC")
    p.add_argument("--max-fpr", dest="max_fpr", type=float, default=None)
    p.add_argument(
        "--class-map", dest="class_map", default=None,
        help="source<TAB>target file renaming classes before --psds",
    )
    p.add_argument("--out", default=None, help="also write the report here")
    return parser


def cmd_features(args, cfg) -> int:
    n_mels = _resolve(args, cfg, "n_mels", MelConfig.n_mels, int)
    pad_seconds = _resolve(args, cfg, "pad_seconds", MelConfig.pad_to_seconds, float)
    domain = _resolve(args, cfg, "domain", "desed", str)
    tag = DomainTag.__members__.get(domain.upper())
    if tag is None:  # argparse limits --domain, so the value came from --config
        raise UsageError(
            f"{cfg['domain'][1]}: domain={domain!r} is not one of {', '.join(_DOMAINS)}"
        )
    _log_config("features", {
        "in": args.in_dir, "out": args.out, "n_mels": n_mels,
        "pad_seconds": pad_seconds, "domain": domain, "seed": args.seed,
    })
    mel_cfg = MelConfig(n_mels=n_mels, pad_to_seconds=pad_seconds)
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
                f"{maps[0].shape}; pad_seconds={pad_seconds} pads shorter clips "
                "but never cuts longer ones"
            )
    batch = make_batch(maps, [tag] * len(maps))
    write_fmt(batch, args.out)
    print(f"wrote {len(maps)} feature maps to {args.out}", file=sys.stderr)
    return 0


def cmd_stats(args, cfg) -> int:
    which = _resolve(args, cfg, "which", "frequency", str)
    _log_config("stats", {"in": args.in_fmt, "out": args.out, "which": which})
    batch = read_fmt(args.in_fmt)
    n = stats.export_stats(batch, which, args.out)
    print(f"wrote {n} statistic rows to {args.out}", file=sys.stderr)
    return 0


def cmd_augment(args, cfg) -> int:
    p = _resolve(args, cfg, "p", mixstyle.MixStyleConfig.p, float)
    alpha = _resolve(args, cfg, "alpha", mixstyle.MixStyleConfig.alpha, float)
    eps = _resolve(args, cfg, "eps", mixstyle.MixStyleConfig.eps, float)
    _log_config("augment", {
        "in": args.in_fmt, "out": args.out, "p": p, "alpha": alpha,
        "eps": eps, "seed": args.seed,
    })
    batch = read_fmt(args.in_fmt)
    mix_cfg = mixstyle.MixStyleConfig(p=p, alpha=alpha, eps=eps)
    rng = RandomSource(args.seed)
    try:
        out = mixstyle.freq_mixstyle(batch, mix_cfg, rng)
    except InvalidParameterError as exc:  # the order of the file's domain tags
        raise ParseError(str(exc), path=args.in_fmt) from None
    write_fmt(out, args.out)
    print(f"wrote augmented batch to {args.out}", file=sys.stderr)
    return 0


# Each CsebbConfig field and its default; a field's flag has the field's name.
_CSEBB_DEFAULTS = {
    key: getattr(sebb.CsebbConfig, key) for key in sebb.CsebbConfig.__dataclass_fields__
}


def _csebb_config(args, cfg) -> sebb.CsebbConfig:
    fields = {}
    for key, default in _CSEBB_DEFAULTS.items():
        fields[key] = _resolve(args, cfg, key, default, type(default))
        _check(_at(args, cfg, key), sebb.CsebbConfig, **{key: fields[key]})
    return sebb.CsebbConfig(**fields)


def cmd_postprocess(args, cfg) -> int:
    csebb = _csebb_config(args, cfg)
    threshold = _resolve(args, cfg, "threshold", 0.5, float)
    # threshold_events checks every threshold before it looks at a box.
    _check(_at(args, cfg, "threshold"), sebb.threshold_events, [], {}, default=threshold)
    _log_config("postprocess", {
        "scores": args.scores, "out": args.out,
        **{key: getattr(csebb, key) for key in _CSEBB_DEFAULTS},
        "threshold": threshold,
    })
    thresholds: dict[str, float] = {}
    if args.thresholds_file:
        try:
            pairs = dataio._read_tab_pairs(args.thresholds_file, "class<TAB>threshold")
        except ParseError as exc:
            raise UsageError(str(exc)) from None
        for cls, (value, i) in pairs.items():
            where = f"{args.thresholds_file}:{i}"
            thresholds[cls] = _cast(float, cls, value, where)
            _check(f"{where}: ", sebb.threshold_events, [], {cls: thresholds[cls]})
    tracks = dataio.read_scores(args.scores)
    events = []
    for tr in tracks:
        boxes = sebb.detect_sebbs(tr, csebb)
        events.extend(
            sebb.threshold_events(boxes, thresholds, clip_id=tr.clip_id, default=threshold)
        )
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


def cmd_tune_sebb(args, cfg) -> int:
    _log_config("tune-sebb", {
        "scores": args.scores, "truth": args.truth,
        "durations": args.durations, "grid": args.grid,
    })
    grid = _parse_grid(args.grid)
    tracks = _read_score_rows(args.scores)
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


def _read_score_rows(path) -> list[sebb.ScoreTrack]:
    """``dataio.read_scores`` for a file that must hold at least one row."""
    tracks = dataio.read_scores(path)
    if not tracks:
        n_lines = len(dataio._read_lines(path))
        raise ParseError("no score rows after the header", path=path, line=n_lines)
    return tracks


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


def cmd_evaluate(args, cfg) -> int:
    max_fpr = _resolve(args, cfg, "max_fpr", 0.1, float)
    if not 0 < max_fpr <= 1:  # False for NaN
        where = "--max-fpr" if args.max_fpr is not None else f"{cfg['max_fpr'][1]}: max_fpr"
        raise UsageError(f"{where} must be in (0, 1], got {max_fpr}")
    if args.class_map and not args.psds:
        raise UsageError("--class-map applies to --psds only")
    _log_config("evaluate", {
        "events": args.events, "truth": args.truth, "durations": args.durations,
        "psds": args.psds, "segscores": args.segscores,
        "segtruth": args.segtruth, "mpauc": args.mpauc, "max_fpr": max_fpr,
    })
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
            _read_score_rows(args.segscores), _read_score_rows(args.segtruth),
            args.segscores, args.segtruth,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = metrics.mpauc_report(scores, labels, classes, max_fpr)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _read_config(args.config) if getattr(args, "config", None) else {}
        return _HANDLERS[args.command](args, cfg)
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
