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

from . import dataio, metrics, mixstyle, sebb, stats
from .core import DomainTag, RandomSource, make_batch, read_fmt, write_fmt
from .errors import ParseError, SedtkError, UsageError
from .frontend import MelConfig, log_mel, read_wav, resample_to_mono_16k

_DOMAINS = [name.lower() for name in DomainTag.__members__]

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors become exit code 1, not 2
        raise UsageError(message)


def _read_config(path) -> dict[str, tuple[str, str]]:
    """Map each key of a key=value file to its value and its ``path:line``."""
    values: dict[str, tuple[str, str]] = {}
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{i}: config line must be key=value, got {line!r}")
        key, val = stripped.split("=", 1)
        values[key.strip()] = (val.strip(), f"{path}:{i}")
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
    p.add_argument("--class-map", dest="class_map", default=None)
    p.add_argument("--out", default=None, help="also write the report here")
    return parser


def cmd_features(args, cfg) -> int:
    n_mels = _resolve(args, cfg, "n_mels", 128, int)
    pad_seconds = _resolve(args, cfg, "pad_seconds", 10.0, float)
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
        clip = resample_to_mono_16k(read_wav(wav))
        maps.append(log_mel(clip, mel_cfg))
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
    p = _resolve(args, cfg, "p", 0.5, float)
    alpha = _resolve(args, cfg, "alpha", 0.6, float)
    eps = _resolve(args, cfg, "eps", 1e-5, float)
    _log_config("augment", {
        "in": args.in_fmt, "out": args.out, "p": p, "alpha": alpha,
        "eps": eps, "seed": args.seed,
    })
    batch = read_fmt(args.in_fmt)
    mix_cfg = mixstyle.MixStyleConfig(p=p, alpha=alpha, eps=eps)
    rng = RandomSource(args.seed)
    out = mixstyle.freq_mixstyle(batch, mix_cfg, rng)
    write_fmt(out, args.out)
    print(f"wrote augmented batch to {args.out}", file=sys.stderr)
    return 0


def _csebb_config(args, cfg) -> sebb.CsebbConfig:
    return sebb.CsebbConfig(
        filter_len=_resolve(args, cfg, "filter_len", 21, int),
        merge_threshold_abs=_resolve(args, cfg, "merge_threshold_abs", 0.15, float),
        merge_threshold_rel=_resolve(args, cfg, "merge_threshold_rel", 1.5, float),
        boundary_threshold=_resolve(args, cfg, "boundary_threshold", 0.1, float),
    )


def cmd_postprocess(args, cfg) -> int:
    csebb = _csebb_config(args, cfg)
    threshold = _resolve(args, cfg, "threshold", 0.5, float)
    _log_config("postprocess", {
        "scores": args.scores, "out": args.out,
        "filter_len": csebb.filter_len,
        "merge_threshold_abs": csebb.merge_threshold_abs,
        "merge_threshold_rel": csebb.merge_threshold_rel,
        "boundary_threshold": csebb.boundary_threshold,
        "threshold": threshold,
    })
    thresholds: dict[str, float] = {}
    if args.thresholds_file:
        text = Path(args.thresholds_file).read_text(encoding="utf-8")
        for i, line in enumerate(text.splitlines(), 1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            where = f"{args.thresholds_file}:{i}"
            if line.count("\t") != 1:
                raise UsageError(f"{where}: expected class<TAB>threshold, got {line!r}")
            cls, value = line.split("\t")
            thresholds[cls] = _cast(float, cls, value, where)
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
    grid: dict[str, list] = {}
    for key, (values, where) in _read_config(path).items():
        cast = int if key == "filter_len" else float
        grid[key] = [_cast(cast, key, v, where) for v in values.split(",") if v.strip()]
    return grid


def cmd_tune_sebb(args, cfg) -> int:
    _log_config("tune-sebb", {
        "scores": args.scores, "truth": args.truth,
        "durations": args.durations, "grid": args.grid,
    })
    tracks = dataio.read_scores(args.scores)
    annos = dataio.read_annotations(args.truth)
    durations = dataio.read_durations(args.durations)
    truth = metrics.AnnotationSet(events=annos.events, clip_durations=durations)
    grid = _parse_grid(args.grid)
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
        Path(args.out).write_text(report, encoding="utf-8")
    return 0


def _read_score_rows(path) -> list[sebb.ScoreTrack]:
    """``dataio.read_scores`` for a file that must hold at least one row."""
    tracks = dataio.read_scores(path)
    if not tracks:
        n_lines = len(Path(path).read_text(encoding="utf-8").splitlines())
        raise ParseError("no score rows after the header", path=path, line=n_lines)
    return tracks


def cmd_evaluate(args, cfg) -> int:
    max_fpr = _resolve(args, cfg, "max_fpr", 0.1, float)
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
        score_tracks = _read_score_rows(args.segscores)
        truth_tracks = _read_score_rows(args.segtruth)
        seg_scores = {}
        for tr in score_tracks:
            for k, cls in enumerate(tr.class_names):
                for t in range(tr.n_frames):
                    seg_scores[(tr.clip_id, t, cls)] = float(tr.scores[k, t])
        soft = {}
        durations = {}
        for tr in truth_tracks:
            durations[tr.clip_id] = tr.n_frames * tr.hop_seconds
            for k, cls in enumerate(tr.class_names):
                for t in range(tr.n_frames):
                    soft[(tr.clip_id, t, cls)] = float(tr.scores[k, t])
        truth = metrics.AnnotationSet(
            clip_durations=durations, soft_labels=soft
        )
        labels = metrics.segmentize(
            truth,
            classes=truth_tracks[0].class_names,
            segment_s=truth_tracks[0].hop_seconds,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = metrics.mpauc_report(
                seg_scores, labels,
                classes=score_tracks[0].class_names, max_fpr=max_fpr,
            )
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
        Path(args.out).write_text(report_text, encoding="utf-8")
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
