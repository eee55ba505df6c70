"""Command-line behavior: exit codes, reports, determinism, input safety."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sedtk import dataio
from sedtk.cli import _resolve, build_parser, run
from sedtk.core import DomainTag, FeatureMap, make_batch, read_fmt, write_fmt
from sedtk.dataio import write_durations, write_events, write_scores
from sedtk.frontend import AudioClip, write_wav
from sedtk.metrics import Event
from sedtk.sebb import ScoreTrack


@pytest.fixture
def fmt_file(tmp_path):
    rng = np.random.default_rng(0)
    maps = [FeatureMap(rng.normal(size=(1, 4, 8)).astype(np.float32)) for _ in range(4)]
    tags = [DomainTag.DESED] * 2 + [DomainTag.MAESTRO] * 2
    path = tmp_path / "in.fmt"
    write_fmt(make_batch(maps, tags), path)
    return path


def _fresh_python(*args):
    """``python *args`` in a new interpreter that imports sedtk from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _perfect_fixture(tmp_path):
    events = [Event("a", "dog", 1.0, 2.0), Event("a", "cat", 4.0, 5.0)]
    truth_path = tmp_path / "truth.tsv"
    events_path = tmp_path / "events.tsv"
    dur_path = tmp_path / "durs.tsv"
    write_events(events, truth_path)
    write_events(events, events_path)
    write_durations({"a": 100.0}, dur_path)
    return events_path, truth_path, dur_path


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run(["evaluate", "--no-such-flag"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand_is_1(self):
        assert run(["transmogrify"]) == 1

    def test_data_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.fmt"
        bad.write_bytes(b"nope")
        assert run(["stats", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path):
        assert (
            run(["stats", "--in", str(tmp_path / "nope.fmt"), "--out", str(tmp_path / "o")])
            == 2
        )

    @pytest.mark.parametrize(
        "command, flag, expected",
        [
            ("features", "--in", "n_mels=128 pad_seconds=10.0 domain=desed"),
            ("augment", "--in", "p=0.5 alpha=0.6 eps=1e-05 seed=0"),
            ("postprocess", "--scores", "filter_len=21 merge_threshold_abs=0.15 "
             "merge_threshold_rel=1.5 boundary_threshold=0.1 threshold=0.5"),
        ],
    )
    def test_config_line_shows_the_defaults(self, tmp_path, capsys, command, flag, expected):
        src, out = tmp_path / "missing", tmp_path / "out"
        assert run([command, flag, str(src), "--out", str(out)]) == 2  # logged, then read
        in_key = "scores" if flag == "--scores" else "in"
        line = f"config: subcommand={command} {in_key}={src} out={out} {expected}"
        assert line in capsys.readouterr().err.splitlines()

    def test_import_raises_no_warnings(self):
        # The import loads no scipy, so the feature path's scipy calls run too.
        proc = _fresh_python("-W", "error", "-c", (
            "import numpy as np\n"
            "import sedtk, sedtk.cli\n"
            "from sedtk import frontend\n"
            "frontend._analysis_tables(frontend.MelConfig())\n"
            "frontend._resample_filter(160, 441)\n"
            "frontend.resample_to_mono_16k(frontend.AudioClip(np.zeros(4410, np.float32), 44100))\n"
        ))
        assert proc.returncode == 0, proc.stderr

    def test_python_m_sedtk(self, benchmark_inputs, tmp_path):
        # The benchmark's config, given as flags and as a --config file, writes the same events.
        inputs = benchmark_inputs["score"]
        c = json.loads((inputs / "plan.json").read_text())["config"]
        options = [  # flag, config key, value
            ("--filter-len", "filter_len", c["filter_len"]),
            ("--boundary", "boundary_threshold", c["boundary"]),
            ("--merge-abs", "merge_threshold_abs", c["merge_abs"]),
            ("--merge-rel", "merge_threshold_rel", c["merge_rel"]),
            ("--threshold", "threshold", c["threshold"]),
        ]
        config = tmp_path / "plan.cfg"
        config.write_text("".join(f"{key}={value}\n" for _, key, value in options))
        flags = [x for flag, _, value in options for x in (flag, str(value))]
        postprocess = ["-m", "sedtk", "postprocess", "--scores", str(inputs / "scores.csv")]
        for out, extra in (("flags.tsv", flags), ("config.tsv", ["--config", str(config)])):
            proc = _fresh_python(*postprocess, "--out", str(tmp_path / out), *extra)
            assert proc.returncode == 0, proc.stderr
        events = (tmp_path / "flags.tsv").read_bytes()
        assert events.count(b"\n") > 1 and events == (tmp_path / "config.tsv").read_bytes()
        usage = _fresh_python("-m", "sedtk", "postprocess", "--no-such-flag")
        assert usage.returncode == 1 and "usage error" in usage.stderr
        missing = _fresh_python("-m", "sedtk", *_missing_input_argv(tmp_path, "postprocess"))
        assert missing.returncode == 2 and "error" in missing.stderr


def _missing_input_argv(tmp_path, command):
    """A command line whose input file is missing: the run logs its config, then exits 2."""
    missing = str(tmp_path / "missing")
    return {
        "features": ["features", "--in", missing, "--out", str(tmp_path / "f.fmt")],
        "stats": ["stats", "--in", missing, "--out", str(tmp_path / "s.csv")],
        "augment": ["augment", "--in", missing, "--out", str(tmp_path / "a.fmt")],
        "postprocess": ["postprocess", "--scores", missing, "--out", str(tmp_path / "ev.tsv")],
        "tune-sebb": ["tune-sebb", "--scores", missing, "--truth", missing,
                      "--durations", missing, "--grid", missing],
        "evaluate": ["evaluate", "--mpauc", "--segscores", missing, "--segtruth", missing],
    }[command]


class TestOptionResolver:
    """Every option with a default takes its flag, else its --config line, else the default."""

    # command, flag, config key, a value other than the default, the default
    OPTIONS = [
        ("features", "--n-mels", "n_mels", "16", 128),
        ("features", "--pad-seconds", "pad_seconds", "2.5", 10.0),
        ("features", "--domain", "domain", "maestro", "desed"),
        ("stats", "--which", "which", "channel", "frequency"),
        ("augment", "--p", "p", "0.25", 0.5),
        ("augment", "--alpha", "alpha", "0.3", 0.6),
        ("augment", "--eps", "eps", "0.001", 1e-5),
        ("augment", "--seed", "seed", "7", 0),
        ("postprocess", "--filter-len", "filter_len", "5", 21),
        ("postprocess", "--merge-abs", "merge_threshold_abs", "0.2", 0.15),
        ("postprocess", "--merge-rel", "merge_threshold_rel", "2.5", 1.5),
        ("postprocess", "--boundary", "boundary_threshold", "0.3", 0.1),
        ("postprocess", "--threshold", "threshold", "0.7", 0.5),
        ("evaluate", "--max-fpr", "max_fpr", "0.2", 0.1),
    ]
    COMMANDS = ["features", "stats", "augment", "postprocess", "tune-sebb", "evaluate"]

    @staticmethod
    def _resolved(argv):
        args = build_parser().parse_args(argv)
        _resolve(args)
        return args

    @pytest.mark.parametrize("command", COMMANDS)
    def test_the_table_lists_every_option_with_a_default(self, tmp_path, command):
        args = build_parser().parse_args(_missing_input_argv(tmp_path, command))
        settable = {action.dest for action, default in args.options if default is not None}
        assert settable == {key for cmd, _, key, _, _ in self.OPTIONS if cmd == command}

    @pytest.mark.parametrize("command, flag, key, value, default", OPTIONS)
    def test_flag_and_config_resolve_alike(self, tmp_path, capsys, command, flag, key, value,
                                           default):
        argv = _missing_input_argv(tmp_path, command)
        cfg = tmp_path / "values.cfg"
        cfg.write_text(f"# set by file\n{key} = {value}\n")
        ways = {"flag": [flag, value], "config": ["--config", str(cfg)], "default": []}
        resolved, logged = {}, {}
        for way, extra in ways.items():
            resolved[way] = getattr(self._resolved(argv + extra), key)
            assert run(argv + extra) == 2  # logged, then the missing input is read
            (line,) = [l for l in capsys.readouterr().err.splitlines() if l.startswith("config:")]
            logged[way] = line
        assert resolved["flag"] == resolved["config"] == type(default)(value)
        assert type(resolved["config"]) is type(default)
        assert resolved["default"] == default
        assert logged["flag"] == logged["config"]
        assert f" {key}={type(default)(value)}" in logged["flag"]
        assert f" {key}={default}" in logged["default"]
        assert logged["default"].startswith(f"config: subcommand={command} ")

    def test_flag_wins_over_config(self, tmp_path):
        cfg = tmp_path / "values.cfg"
        cfg.write_text("filter_len=5\n")
        argv = _missing_input_argv(tmp_path, "postprocess") + ["--config", str(cfg)]
        args = self._resolved(argv + ["--filter-len", "7"])
        assert args.filter_len == 7
        assert args.at["filter_len"] == "--filter-len: "
        assert self._resolved(argv).at["filter_len"] == f"{cfg}:1: "

    @pytest.mark.parametrize("command, key", [
        (command, key)
        for command in ["features", "stats", "augment", "postprocess", "evaluate"]
        for key in ["window", "seed", "out", "config"]
        if (command, key) != ("augment", "seed")
    ])
    def test_unknown_key_is_refused_at_its_line_before_input_is_read(
        self, tmp_path, capsys, command, key
    ):
        cfg = tmp_path / "values.cfg"
        cfg.write_text(f"# options\n{key}=3\n")
        code = run(_missing_input_argv(tmp_path, command) + ["--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines()[-1].startswith(
            f"usage error: {cfg}:2: unknown key {key!r}, expected one of ["
        )
        assert "config:" not in captured.err  # refused before the run starts
        assert os.listdir(tmp_path) == ["values.cfg"]

    def test_seed_from_config_gives_the_bytes_of_the_flag(self, tmp_path, fmt_file):
        cfg = tmp_path / "aug.cfg"
        cfg.write_text("p=1\nseed=7\n")
        by_flag, by_config, unseeded = (tmp_path / f"{n}.fmt" for n in ("f", "c", "u"))
        base = ["augment", "--in", str(fmt_file)]
        assert run(base + ["--out", str(by_flag), "--p", "1", "--seed", "7"]) == 0
        assert run(base + ["--out", str(by_config), "--config", str(cfg)]) == 0
        assert run(base + ["--out", str(unseeded), "--p", "1"]) == 0
        assert by_config.read_bytes() == by_flag.read_bytes()
        assert by_config.read_bytes() != unseeded.read_bytes()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_0_and_only_augment_takes_a_seed(self, capsys, command):
        assert run([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: sedtk {command} ")
        assert ("--seed" in text) == (command == "augment")
        assert ("--config" in text) == (command != "tune-sebb")


class TestScipyLoading:
    """``import sedtk`` loads numpy only; scipy comes in with the feature path alone."""

    # Imports sedtk, runs the command line it is given, and prints whether
    # any scipy module is loaded, then whether numpy.ma is, then whether
    # OpenSSL's _hashlib is.
    _PROBE = (
        "import sys\n"
        "import sedtk, sedtk.cli\n"
        "if sys.argv[1:] and sedtk.cli.run(sys.argv[1:]) != 0:\n"
        "    sys.exit('the command failed')\n"
        "print('scipy' in sys.modules, 'numpy.ma' in sys.modules, '_hashlib' in sys.modules)\n"
    )

    def _argv(self, tmp_path, command, fmt_file):
        events, truth, durs = _perfect_fixture(tmp_path)
        s = np.zeros((2, 200))
        s[0, 50:100] = s[1, 120:160] = 0.9
        scores = tmp_path / "scores.csv"
        write_scores([ScoreTrack(s, 0.02, ("dog", "cat"), "a")], scores)
        segs = tmp_path / "segs.csv"
        write_scores([ScoreTrack(s[:, ::20], 0.4, ("dog", "cat"), "a")], segs)
        grid = tmp_path / "grid.cfg"
        grid.write_text("filter_len=5,21\n")
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        wave = np.random.default_rng(0).normal(scale=0.1, size=4410).astype(np.float32)
        write_wav(wav_dir / "a.wav", AudioClip(wave, 44100), "pcm16")
        return {
            "postprocess": ["postprocess", "--scores", scores, "--out", tmp_path / "ev.tsv"],
            "evaluate": ["evaluate", "--psds", "--mpauc", "--events", events, "--truth", truth,
                         "--durations", durs, "--segscores", segs, "--segtruth", segs],
            "tune-sebb": ["tune-sebb", "--scores", scores, "--truth", truth,
                          "--durations", durs, "--grid", grid],
            "stats": ["stats", "--in", fmt_file, "--out", tmp_path / "s.csv"],
            "augment": ["augment", "--in", fmt_file, "--out", tmp_path / "a.fmt", "--p", "1"],
            "features": ["features", "--in", wav_dir, "--out", tmp_path / "f.fmt",
                         "--n-mels", "16", "--pad-seconds", "0.5"],
        }[command]

    # numpy.ma is checked only where scipy is not loaded (scipy imports it).
    # _hashlib comes in only with numpy.random, which imports secrets:
    # augment draws from it and scipy imports it.
    @pytest.mark.parametrize(
        "command, loads_scipy, loads_openssl",
        [(None, False, False), ("postprocess", False, False), ("evaluate", False, False),
         ("tune-sebb", False, False), ("stats", False, False), ("augment", False, True),
         ("features", True, True)],
    )
    def test_in_a_fresh_interpreter(self, tmp_path, fmt_file, command, loads_scipy,
                                    loads_openssl):
        argv = [] if command is None else [str(a) for a in self._argv(tmp_path, command, fmt_file)]
        proc = _fresh_python("-c", self._PROBE, *argv)
        assert proc.returncode == 0, proc.stderr
        scipy, numpy_ma, hashlib = proc.stdout.splitlines()[-1].split()
        assert (scipy, hashlib) == (str(loads_scipy), str(loads_openssl))
        if not loads_scipy:
            assert numpy_ma == "False"


class TestEvaluate:
    def test_perfect_psds_report(self, tmp_path, capsys):
        events_path, truth_path, dur_path = _perfect_fixture(tmp_path)
        code = run([
            "evaluate", "--events", str(events_path), "--truth", str(truth_path),
            "--durations", str(dur_path), "--psds",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "psds=1.000000" in captured.out
        assert "psds=1.000000" not in captured.err  # report only on stdout

    def test_mpauc_report_and_joint(self, tmp_path, capsys):
        events_path, truth_path, dur_path = _perfect_fixture(tmp_path)
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=(2, 40)).astype(float)
        labels[:, :2] = [[0.0], [0.0]]
        labels[:, 2:4] = [[1.0], [1.0]]
        scores = np.clip(labels * 0.8 + rng.uniform(0, 0.2, labels.shape), 0, 1)
        seg_scores = tmp_path / "seg.csv"
        seg_truth = tmp_path / "seg_truth.csv"
        write_scores(
            [ScoreTrack(scores=scores, hop_seconds=1.0, class_names=("dog", "cat"), clip_id="a")],
            seg_scores,
        )
        write_scores(
            [ScoreTrack(scores=labels, hop_seconds=1.0, class_names=("dog", "cat"), clip_id="a")],
            seg_truth,
        )
        out_file = tmp_path / "report.txt"
        code = run([
            "evaluate", "--events", str(events_path), "--truth", str(truth_path),
            "--durations", str(dur_path), "--psds",
            "--segscores", str(seg_scores), "--segtruth", str(seg_truth), "--mpauc",
            "--out", str(out_file),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "psds=1.000000" in captured.out
        assert "mpauc=1.000000" in captured.out
        assert "joint=2.000000" in captured.out
        assert out_file.read_text() == captured.out

    @pytest.mark.parametrize("empty", ["--segscores", "--segtruth"])
    def test_mpauc_file_without_rows_is_data_error(self, tmp_path, capsys, empty):
        track = ScoreTrack(
            scores=np.full((1, 4), 0.5), hop_seconds=1.0, class_names=("dog",), clip_id="a"
        )
        full, header_only = tmp_path / "full.csv", tmp_path / "header_only.csv"
        write_scores([track], full)
        header_only.write_text("# hop_seconds=1\nclip_id,frame,dog\n")
        files = {"--segscores": full, "--segtruth": full, empty: header_only}
        code = run([
            "evaluate", "--mpauc",
            "--segscores", str(files["--segscores"]), "--segtruth", str(files["--segtruth"]),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {header_only}:2:" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "scores_clips, score_hop, score_classes, named",
        [
            ({"a": 10}, 1.0, ("dog", "cat"), "'b'"),  # truth clip without scores
            ({"a": 10, "b": 8}, 1.0, ("dog", "cat"), "'b'"),  # shorter score track
            ({"a": 10, "b": 10}, 0.5, ("dog", "cat"), "hop_seconds=0.5"),
            ({"a": 10, "b": 10, "c": 10}, 1.0, ("dog", "cat"), "'c'"),  # clip without truth
            ({"a": 10, "b": 12}, 1.0, ("dog", "cat"), "'b'"),  # longer score track
            ({"a": 10, "b": 10}, 1.0, ("dog", "bird"), "'bird'"),  # unknown class
        ],
    )
    def test_misaligned_segment_files_are_data_error(
        self, tmp_path, capsys, scores_clips, score_hop, score_classes, named
    ):
        rng = np.random.default_rng(2)
        truth = [
            ScoreTrack(np.tile([0.0, 1.0], (2, 5)), 1.0, ("dog", "cat"), clip)
            for clip in ("a", "b")
        ]
        scores = [
            ScoreTrack(rng.uniform(size=(2, n)), score_hop, score_classes, clip)
            for clip, n in scores_clips.items()
        ]
        seg_scores, seg_truth = tmp_path / "seg.csv", tmp_path / "seg_truth.csv"
        write_scores(scores, seg_scores)
        write_scores(truth, seg_truth)
        code = run([
            "evaluate", "--mpauc", "--segscores", str(seg_scores), "--segtruth", str(seg_truth),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines()[-1].startswith(f"error: {seg_scores}: ")
        assert named in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "nan", "1.5", "-0.1"])
    def test_bad_max_fpr_flag_is_usage_error(self, tmp_path, capsys, value):
        missing = tmp_path / "missing.csv"  # the value is checked before any file is read
        code = run([
            "evaluate", "--mpauc", "--segscores", str(missing), "--segtruth", str(missing),
            "--max-fpr", value,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "usage error: --max-fpr must be in (0, 1]" in captured.err
        assert captured.out == ""

    def test_needs_a_metric_flag(self, tmp_path):
        assert run(["evaluate"]) == 1

    @pytest.mark.parametrize("command", ["evaluate", "tune-sebb"])
    def test_clip_without_duration_is_data_error(self, tmp_path, capsys, command):
        events, truth, durs = _perfect_fixture(tmp_path)
        write_events([Event(c, "dog", 1.0, 2.0) for c in "abc"], events)
        if command == "tune-sebb":  # flat scores give no detections; truth names b and c
            write_events([Event(c, "dog", 1.0, 2.0) for c in "abc"], truth)
        scores = tmp_path / "scores.csv"
        write_scores([
            ScoreTrack(scores=np.full((1, 50), 0.5), hop_seconds=0.02,
                       class_names=("dog",), clip_id=c)
            for c in "abc"
        ], scores)
        grid = tmp_path / "grid.cfg"
        grid.write_text("filter_len=5\n")
        argv = {
            "evaluate": ["evaluate", "--psds", "--events", str(events)],
            "tune-sebb": ["tune-sebb", "--scores", str(scores), "--grid", str(grid)],
        }[command]
        code = run(argv + ["--truth", str(truth), "--durations", str(durs)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: no duration for clip 'b', 'c'" in captured.err
        assert captured.out == ""

    def test_class_map_without_psds_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"  # rejected before any file is read
        code = run([
            "evaluate", "--mpauc", "--segscores", str(missing), "--segtruth", str(missing),
            "--class-map", str(tmp_path / "missing.tsv"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "usage error: --class-map applies to --psds only" in captured.err
        assert captured.out == ""


class TestAugment:
    def test_p_zero_is_byte_identical(self, tmp_path, fmt_file):
        out = tmp_path / "out.fmt"
        code = run([
            "augment", "--in", str(fmt_file), "--out", str(out),
            "--p", "0", "--seed", "5",
        ])
        assert code == 0
        assert out.read_bytes() == fmt_file.read_bytes()

    def test_same_seed_same_bytes(self, tmp_path, fmt_file):
        out1, out2 = tmp_path / "o1.fmt", tmp_path / "o2.fmt"
        argv = ["augment", "--in", str(fmt_file), "--p", "1.0", "--seed", "9"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_differs(self, tmp_path, fmt_file):
        out1, out2 = tmp_path / "o1.fmt", tmp_path / "o2.fmt"
        run(["augment", "--in", str(fmt_file), "--out", str(out1), "--p", "1", "--seed", "1"])
        run(["augment", "--in", str(fmt_file), "--out", str(out2), "--p", "1", "--seed", "2"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_input_not_mutated(self, tmp_path, fmt_file):
        before = fmt_file.read_bytes()
        run(["augment", "--in", str(fmt_file), "--out", str(tmp_path / "o.fmt"), "--p", "1"])
        assert fmt_file.read_bytes() == before

    def test_large_alpha_finishes(self, tmp_path, fmt_file):
        out = tmp_path / "o.fmt"
        argv = ["augment", "--in", str(fmt_file), "--out", str(out), "--p", "1", "--seed", "3"]
        assert run(argv + ["--alpha", "30"]) == 0
        assert len(read_fmt(out)) == 4

    def test_config_file_supplies_flags(self, tmp_path, fmt_file):
        cfg = tmp_path / "aug.cfg"
        cfg.write_text("p=0\n")
        out = tmp_path / "o.fmt"
        assert run(["augment", "--in", str(fmt_file), "--out", str(out), "--config", str(cfg)]) == 0
        assert out.read_bytes() == fmt_file.read_bytes()


class TestFeaturesAndStats:
    def test_features_then_stats(self, tmp_path):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        rng = np.random.default_rng(2)
        for i in range(2):
            wave = rng.normal(scale=0.1, size=16000).astype(np.float32)
            write_wav(wav_dir / f"clip{i}.wav", AudioClip(wave, 16000), "pcm16")
        feats = tmp_path / "f.fmt"
        code = run([
            "features", "--in", str(wav_dir), "--out", str(feats),
            "--n-mels", "16", "--pad-seconds", "2",
        ])
        assert code == 0
        batch = read_fmt(feats)
        assert len(batch) == 2
        assert batch.shape == (1, 16, 2 * 16000 // 256 + 1)
        stats_csv = tmp_path / "s.csv"
        assert run(["stats", "--in", str(feats), "--out", str(stats_csv), "--which", "frequency"]) == 0
        lines = stats_csv.read_text().splitlines()
        assert len(lines) == 2
        assert all(len(l.split(",")) == 1 + 32 for l in lines)

    def test_empty_dir_is_data_error(self, tmp_path):
        wav_dir = tmp_path / "empty"
        wav_dir.mkdir()
        assert run(["features", "--in", str(wav_dir), "--out", str(tmp_path / "f.fmt")]) == 2

    @staticmethod
    def _wav_dir(tmp_path, seconds):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        rng = np.random.default_rng(3)
        for i, s in enumerate(seconds):
            wave = rng.normal(scale=0.1, size=int(s * 16000)).astype(np.float32)
            write_wav(wav_dir / f"clip{i}.wav", AudioClip(wave, 16000), "pcm16")
        return wav_dir

    @pytest.mark.parametrize("pad", ["nan", "inf", "-1"])
    def test_bad_pad_seconds_is_usage_error(self, tmp_path, capsys, pad):
        wav_dir = self._wav_dir(tmp_path, [0.5])
        out = tmp_path / "f.fmt"
        code = run(["features", "--in", str(wav_dir), "--out", str(out),
                    "--n-mels", "16", f"--pad-seconds={pad}"])
        err = capsys.readouterr().err
        assert code == 1
        assert "usage error: --pad-seconds: pad_to_seconds must be finite and >= 0" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_clip_longer_than_pad_names_the_file(self, tmp_path, capsys):
        wav_dir = self._wav_dir(tmp_path, [1.0, 2.0])
        out = tmp_path / "f.fmt"
        code = run(["features", "--in", str(wav_dir), "--out", str(out),
                    "--n-mels", "16", "--pad-seconds", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert (
            f"error: {wav_dir / 'clip1.wav'}: feature map has shape (1, 16, 126), "
            f"but {wav_dir / 'clip0.wav'} has (1, 16, 63)"
        ) in err
        assert not out.exists()

    @staticmethod
    def _edited(*splices):
        """A maker of a pcm16 WAV with ``raw[start:stop] = new`` applied for each splice.

        The fmt chunk's size is at bytes 16:20, its channels at 22:24, its
        rate at 24:28 and its bits at 34:36; the data chunk starts at 36.
        """
        def make(path):
            write_wav(path, AudioClip(np.zeros(4000, np.float32), 16000), "pcm16")
            raw = bytearray(path.read_bytes())
            for start, stop, new in splices:
                raw[start:stop] = new
            path.write_bytes(bytes(raw))
        return make

    @pytest.mark.parametrize("make_wav,pad,message", [
        (lambda p: write_wav(p, AudioClip(np.zeros(0, np.float32), 16000), "pcm16"),
         "1", "clip has zero samples"),
        (_edited((24, 28, bytes(4))), "1", "sample_rate must be > 0, got 0"),
        (lambda p: write_wav(p, AudioClip(np.zeros(1000, np.float32), 16000), "pcm16"),
         "0", "padded clip (1000 samples) shorter than n_fft=2048"),
        (_edited((34, 36, bytes(2))), "1", "unsupported encoding: format tag 1, 0-bit"),
        (_edited((22, 24, bytes(2))), "1", "zero channels"),
        (_edited((34, 36, b""), (16, 20, b"\x0e\x00\x00\x00")), "1", "fmt chunk too short"),
        (_edited((36, None, b"")), "1", "missing fmt or data chunk"),
        (_edited((24, 28, b"\xff" * 4)), "1",
         "sample_rate 4294967295 Hz is above 768000 Hz"),
        (_edited((24, 28, (96001).to_bytes(4, "little"))), "1",
         "sample_rate 96001 Hz resamples to 16 kHz as 16000/96001, a ratio term above 640"),
    ], ids=["zero-samples", "rate-zero", "shorter-than-n-fft", "bits-zero", "zero-channels",
            "fmt-14-bytes", "no-data-chunk", "rate-4294967295", "rate-96001"])
    def test_bad_clip_is_data_error_naming_the_wav(self, tmp_path, capsys, make_wav, pad, message):
        wav_dir = self._wav_dir(tmp_path, [1.0])
        bad = wav_dir / "clip9.wav"
        make_wav(bad)
        out = tmp_path / "f.fmt"
        code = run(["features", "--in", str(wav_dir), "--out", str(out),
                    "--n-mels", "16", "--pad-seconds", pad])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {bad}: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestPostprocessAndTune:
    def _scores_fixture(self, tmp_path):
        s = np.zeros((1, 200))
        s[0, 40:120] = 0.9
        track = ScoreTrack(scores=s, hop_seconds=0.02, class_names=("dog",), clip_id="a")
        path = tmp_path / "scores.csv"
        write_scores([track], path)
        return path

    def _argv(self, tmp_path, command):
        """A command line of ``command``; the WAV and .fmt inputs fail to decode,
        so a value error reported first was checked before any input was read."""
        scores = self._scores_fixture(tmp_path)
        truth, durs = tmp_path / "truth.tsv", tmp_path / "durs.tsv"
        write_events([Event("a", "dog", 40 * 0.02, 120 * 0.02)], truth)
        write_durations({"a": 4.0}, durs)
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        (wav_dir / "bad.wav").write_bytes(b"nope")
        (tmp_path / "bad.fmt").write_bytes(b"nope")
        return {
            "tune-sebb": ["tune-sebb", "--scores", str(scores), "--truth", str(truth),
                          "--durations", str(durs)],
            "postprocess": ["postprocess", "--scores", str(scores),
                            "--out", str(tmp_path / "ev.tsv")],
            "features": ["features", "--in", str(wav_dir), "--out", str(tmp_path / "f.fmt")],
            "augment": ["augment", "--in", str(tmp_path / "bad.fmt"),
                        "--out", str(tmp_path / "a.fmt")],
            "evaluate": ["evaluate", "--mpauc", "--segscores", str(tmp_path / "missing.csv"),
                         "--segtruth", str(tmp_path / "missing.csv")],
        }[command]

    @pytest.mark.parametrize("hop", ["0", "-0.02", "nan", "inf"])
    def test_bad_hop_is_data_error_at_its_line(self, tmp_path, capsys, hop):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"# clip a\n# hop_seconds={hop}\nclip_id,frame,dog\na,0,0.5\n")
        out = tmp_path / "ev.tsv"
        code = run(["postprocess", "--scores", str(scores), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {scores}:2: hop_seconds must be finite and > 0" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_postprocess_detects_plateau(self, tmp_path):
        scores = self._scores_fixture(tmp_path)
        out = tmp_path / "events.tsv"
        assert run(["postprocess", "--scores", str(scores), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        clip, onset, offset, label = lines[1].split("\t")
        assert (clip, label) == ("a", "dog")
        assert float(onset) == pytest.approx(40 * 0.02, abs=0.02)
        assert float(offset) == pytest.approx(120 * 0.02, abs=0.02)

    def test_postprocess_refuses_an_id_its_events_reader_would_split(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        rows = "".join(f"a\tb,{t},{0.9 if 40 <= t < 120 else 0.0:.6f}\n" for t in range(200))
        scores.write_text("# hop_seconds=0.02\nclip_id,frame,dog\n" + rows)
        out = tmp_path / "events.tsv"
        code = run(["postprocess", "--scores", str(scores), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines()[-1] == (
            "error: clip id 'a\\tb' holds '\\t' or a line break, "
            "which would split its row when the file is read"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tune-sebb", "evaluate"])
    def test_out_file_is_replaced_only_when_written(self, tmp_path, capsys, monkeypatch, command):
        scores = self._scores_fixture(tmp_path)
        events, truth, durs = _perfect_fixture(tmp_path)
        grid = tmp_path / "grid.txt"
        grid.write_text("filter_len=5\n")
        out = tmp_path / "report.txt"
        out.write_text("old\n")
        argv = {
            "tune-sebb": ["tune-sebb", "--scores", str(scores), "--truth", str(truth),
                          "--durations", str(durs), "--grid", str(grid)],
            "evaluate": ["evaluate", "--psds", "--events", str(events), "--truth", str(truth),
                         "--durations", str(durs)],
        }[command] + ["--out", str(out)]

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: replace refused"
        assert out.read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["scores.csv", "events.tsv", "truth.tsv", "durs.tsv", "grid.txt", "report.txt"]
        )
        monkeypatch.undo()
        assert run(argv) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_postprocess_threshold_filters(self, tmp_path):
        scores = self._scores_fixture(tmp_path)
        out = tmp_path / "events.tsv"
        run(["postprocess", "--scores", str(scores), "--out", str(out), "--threshold", "0.95"])
        assert len(out.read_text().splitlines()) == 1  # header only

    def test_thresholds_file_moves_only_its_class(self, tmp_path):
        s = np.zeros((2, 200))
        s[0, 40:120] = s[1, 130:180] = 0.7
        scores = tmp_path / "scores.csv"
        write_scores([ScoreTrack(s, 0.02, ("dog", "cat"), "a")], scores)
        per_class = tmp_path / "thresholds.tsv"
        out = {name: tmp_path / f"{name}.tsv" for name in ("all", "raised", "lowered")}
        argv = ["postprocess", "--scores", str(scores), "--thresholds-file", str(per_class)]
        per_class.write_text("# per class\ncat\t0.5\n")
        assert run(argv + ["--out", str(out["all"])]) == 0
        per_class.write_text("dog\t0.9\n")
        assert run(argv + ["--out", str(out["raised"])]) == 0
        per_class.write_text("dog\t0.6\n")
        assert run(argv + ["--out", str(out["lowered"]), "--threshold", "0.9"]) == 0
        header, *rows = out["all"].read_text().splitlines()
        assert sorted(row.split("\t")[3] for row in rows) == ["cat", "dog"]
        for name, kept in [("raised", "cat"), ("lowered", "dog")]:
            assert out[name].read_text().splitlines() == [header] + [
                row for row in rows if row.endswith(f"\t{kept}")
            ]

    @pytest.mark.parametrize("rows, cls, code", [
        (True, "dog", 0), (True, "cat", 1), (False, "dog", 2), (False, "cat", 2),
    ])
    def test_thresholds_file_classes_are_those_of_the_score_rows(
        self, tmp_path, capsys, rows, cls, code
    ):
        scores = self._scores_fixture(tmp_path)
        if not rows:  # no classes to check against: a data error before the check
            scores.write_text("# hop_seconds=0.02\nclip_id,frame,dog\n")
        per_class = tmp_path / "thresholds.tsv"
        per_class.write_text(f"{cls}\t0.3\n")
        assert run(["postprocess", "--scores", str(scores), "--out", str(tmp_path / "ev.tsv"),
                    "--thresholds-file", str(per_class)]) == code
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == {
            0: f"wrote 1 events to {tmp_path / 'ev.tsv'}",
            1: f"usage error: {per_class}:1: class 'cat' is not a class of {scores}",
            2: f"error: {scores}:2: no score rows after the header",
        }[code]

    def test_a_bad_row_after_read_clips_outranks_a_thresholds_file_class(self, tmp_path, capsys):
        # 200 clips fill more than one chunk of the byte pass, so their events are
        # made before the bad row is read; the class check must still come second.
        scores = tmp_path / "scores.csv"
        rows = "".join(f"c{c},{t},0.100000,0.{t % 10}00000\n" for c in range(200) for t in range(120))
        scores.write_text("# hop_seconds=0.02\nclip_id,frame,dog,bird\n" + rows
                          + "c200,0,0.100000,0.2x0000\n")
        assert scores.stat().st_size > dataio._BLOCK_BYTES
        per_class = tmp_path / "thresholds.tsv"
        per_class.write_text("cat\t0.3\n")
        assert run(["postprocess", "--scores", str(scores), "--out", str(tmp_path / "ev.tsv"),
                    "--thresholds-file", str(per_class)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {scores}:{3 + 200 * 120}: bad score: '0.2x0000'"
        )

    def test_events_do_not_depend_on_how_the_scores_are_read(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        tracks = [ScoreTrack(rng.uniform(size=(2, 300)) ** 4, 0.02, ("dog", "cat"), f"clip{i}")
                  for i in range(6)]
        scores = tmp_path / "scores.csv"
        write_scores(tracks, scores)
        text = scores.read_text()
        # One score written a digit wider: the same values, off the byte pass's layout.
        wider = tmp_path / "wider.csv"
        wider.write_text(text[:-1] + "0\n")
        argv = ["postprocess", "--threshold", "0.2", "--out"]
        assert run(argv + [str(tmp_path / "whole.tsv"), "--scores", str(scores)]) == 0
        assert run(argv + [str(tmp_path / "wider.tsv"), "--scores", str(wider)]) == 0
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 1000)  # every clip spans chunks
        assert run(argv + [str(tmp_path / "chunks.tsv"), "--scores", str(scores)]) == 0
        events = {name: (tmp_path / f"{name}.tsv").read_text() for name in ("whole", "wider", "chunks")}
        assert len(events["whole"].splitlines()) > 6
        assert events["wider"] == events["whole"] == events["chunks"]

    def test_tune_sebb_prints_config(self, tmp_path, capsys):
        scores = self._scores_fixture(tmp_path)
        truth = tmp_path / "truth.tsv"
        durs = tmp_path / "durs.tsv"
        write_events([Event("a", "dog", 40 * 0.02, 120 * 0.02)], truth)
        write_durations({"a": 4.0}, durs)
        grid = tmp_path / "grid.txt"
        grid.write_text("filter_len=5,21\nboundary_threshold=0.1,0.3\n")
        out = tmp_path / "best.cfg"
        code = run([
            "tune-sebb", "--scores", str(scores), "--truth", str(truth),
            "--durations", str(durs), "--grid", str(grid), "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "filter_len=5" in captured.out
        assert out.read_text() == captured.out
        # tuned config reproduces the annotation through postprocess
        events_out = tmp_path / "ev.tsv"
        assert run([
            "postprocess", "--scores", str(scores), "--out", str(events_out),
            "--config", str(out),
        ]) == 0
        assert "dog" in events_out.read_text()

    @pytest.mark.parametrize(
        "command, flag, text, line",
        [
            ("tune-sebb", "--grid", "filter_len=abc\n", 1),
            ("tune-sebb", "--grid", "filter_len=5,21\nboundary_threshold=0.1,x\n", 2),
            ("tune-sebb", "--grid", "filter_len=5.0\n", 1),
            ("tune-sebb", "--grid", "filter_len=5\nwindow=3\n", 2),
            ("tune-sebb", "--grid", "# axes\nfilter_len=\n", 2),
            ("tune-sebb", "--grid", "filter_len=5,4\n", 1),
            ("tune-sebb", "--grid", "filter_len=5\nboundary_threshold=0.1,-0.1\n", 2),
            ("postprocess", "--config", "# tuned\nfilter_len=abc\n", 2),
            ("postprocess", "--config", "filter_len=5\nthreshold=high\n", 2),
            ("postprocess", "--config", "filter_len 5\n", 1),
            ("postprocess", "--config", "# tuned\nfilter_len=4\n", 2),
            ("postprocess", "--config", "boundary_threshold=nan\n", 1),
            ("postprocess", "--config", "threshold=nan\n", 1),
            ("postprocess", "--config", "filter_len=5\nthreshold=2\n", 2),
            ("postprocess", "--thresholds-file", "Speech\tabc\n", 1),
            ("postprocess", "--thresholds-file", "# per class\nSpeech 0.3\n", 2),
            ("postprocess", "--thresholds-file", "dog\t1.5\n", 1),
            ("postprocess", "--thresholds-file", "Speech\t0.3\ndog\tnan\n", 2),
            ("postprocess", "--thresholds-file", "dog\t0.3\ndog\t0.9\n", 2),
            ("postprocess", "--thresholds-file", "\t0.3\n", 1),
            ("postprocess", "--thresholds-file", "dog\t0.3\nSpeach\t0.9\n", 2),
            ("features", "--config", "n_mels=16\ndomain=foo\n", 2),
            ("features", "--config", "n_mels=0\n", 1),
            ("features", "--config", "# pad\npad_seconds=-1\n", 2),
            ("augment", "--config", "p=2\n", 1),
            ("augment", "--config", "p=1\nalpha=0\n", 2),
            ("augment", "--config", "eps=nan\n", 1),
            ("augment", "--config", "# seed\nseed=-1\n", 2),
            ("evaluate", "--config", "max_fpr=0\n", 1),
            ("evaluate", "--config", "# cap\nmax_fpr=nan\n", 2),
            ("evaluate", "--config", "max_fpr=1.5\n", 1),
        ],
    )
    def test_bad_file_value_is_usage_error(
        self, tmp_path, capsys, command, flag, text, line
    ):
        values = tmp_path / "values.cfg"
        values.write_text(text)
        code = run(self._argv(tmp_path, command) + [flag, str(values)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"usage error: {values}:{line}:" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    # The message names the flag, not the field it sets.
    @pytest.mark.parametrize("command, flag, value, message", [
        ("postprocess", "--threshold", "2",
         "--threshold: default threshold must be in [0,1], got 2.0"),
        ("postprocess", "--threshold", "nan",
         "--threshold: default threshold must be in [0,1], got nan"),
        ("postprocess", "--filter-len", "4",
         "--filter-len: filter_len must be odd and >= 3, got 4"),
        ("postprocess", "--merge-abs", "-0.5",
         "--merge-abs: merge_threshold_abs must be > 0, got -0.5"),
        ("postprocess", "--merge-rel", "0",
         "--merge-rel: merge_threshold_rel must be > 0, got 0.0"),
        ("postprocess", "--boundary", "nan",
         "--boundary: boundary_threshold must be > 0, got nan"),
        ("features", "--n-mels", "0", "--n-mels: n_mels must be >= 1"),
        ("features", "--pad-seconds", "inf",
         "--pad-seconds: pad_to_seconds must be finite and >= 0, got inf"),
        ("augment", "--p", "2", "--p: p must be in [0,1], got 2.0"),
        ("augment", "--alpha", "inf", "--alpha: alpha must be finite and > 0, got inf"),
        ("augment", "--eps", "0", "--eps: eps must be > 0, got 0.0"),
        ("augment", "--seed", "-1", "--seed: seed must be a 64-bit unsigned integer, got -1"),
        ("augment", "--seed", str(2**64),
         f"--seed: seed must be a 64-bit unsigned integer, got {2**64}"),
    ])
    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys, command, flag, value,
                                           message):
        argv = self._argv(tmp_path, command)
        out = Path(argv[argv.index("--out") + 1])
        code = run(argv + [flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines()[-1] == f"usage error: {message}"
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad_row",
        [
            "a,x,0.5",  # bad frame
            "a,2.0,0.5",  # float frame
            "a,2,0.5,0.5",  # extra field
            "a,2",  # short row
            "a,2,nan",
            "a,2,1.5",  # out of range
            "a,0,0.5",  # frame restart
            "ab,2,0.5",  # clip id extended: a new clip that starts at frame 2
        ],
    )
    @pytest.mark.parametrize("command", ["postprocess", "tune-sebb", "evaluate"])
    def test_bad_score_file_is_data_error_at_its_line(self, tmp_path, capsys, command, bad_row):
        good = self._scores_fixture(tmp_path)
        scores = tmp_path / "bad.csv"
        scores.write_text(f"# hop_seconds=0.5\nclip_id,frame,dog\na,0,0.5\na,1,0.5\n{bad_row}\n")
        truth, durs = tmp_path / "truth.tsv", tmp_path / "durs.tsv"
        write_events([Event("a", "dog", 0.5, 1.0)], truth)
        write_durations({"a": 1.5}, durs)
        grid = tmp_path / "grid.txt"
        grid.write_text("filter_len=3\n")
        argv = {
            "postprocess": ["postprocess", "--scores", str(scores),
                            "--out", str(tmp_path / "ev.tsv")],
            "tune-sebb": ["tune-sebb", "--scores", str(scores), "--truth", str(truth),
                          "--durations", str(durs), "--grid", str(grid)],
            "evaluate": ["evaluate", "--mpauc", "--segscores", str(scores),
                         "--segtruth", str(good)],
        }[command]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {scores}:5:" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, flag", [("tune-sebb", "--grid"), ("postprocess", "--config")])
    def test_repeated_key_is_usage_error_naming_both_lines(
        self, tmp_path, capsys, command, flag
    ):
        values = tmp_path / "values.cfg"
        values.write_text("filter_len=5\n# second thoughts\nfilter_len = 21\n")
        missing = tmp_path / "missing.csv"
        argv = {
            "tune-sebb": ["tune-sebb", "--scores", str(missing), "--truth", str(missing),
                          "--durations", str(missing)],
            "postprocess": ["postprocess", "--scores", str(missing),
                            "--out", str(tmp_path / "ev.tsv")],
        }[command]
        code = run(argv + [flag, str(values)])
        captured = capsys.readouterr()
        assert code == 1
        assert (
            f"usage error: {values}:3: key 'filter_len' is already set at {values}:1"
            in captured.err
        )
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--durations", "--class-map"])
    def test_repeated_key_in_tab_pair_file_is_data_error_naming_both_lines(
        self, tmp_path, capsys, flag
    ):
        values = tmp_path / "values.tsv"
        values.write_text("dog\t5\n# second thoughts\ndog\t9\n")
        events, truth, durs = _perfect_fixture(tmp_path)
        argv = ["evaluate", "--psds", "--events", str(events), "--truth", str(truth)]
        if flag == "--class-map":
            argv += ["--durations", str(durs)]
        assert run(argv + [flag, str(values)]) == 2
        captured = capsys.readouterr()
        assert f"error: {values}:3: key 'dog' is already set at {values}:1" in captured.err
        assert captured.out == ""

    def test_chained_class_map_is_data_error_at_its_line(self, tmp_path, capsys):
        class_map = tmp_path / "map.tsv"
        class_map.write_text("# super-classes\nCat\tAnimal\nDog\tCat\n")
        events, truth, durs = _perfect_fixture(tmp_path)
        code = run(["evaluate", "--psds", "--events", str(events), "--truth", str(truth),
                    "--durations", str(durs), "--class-map", str(class_map)])
        captured = capsys.readouterr()
        assert code == 2
        assert (
            f"error: {class_map}:3: class map is not chain-free: 'Dog' -> 'Cat' -> 'Animal'; "
            "'Cat' is mapped at line 2"
        ) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_bad_grid_is_reported_before_scores_are_read(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("filter_len=5\nwindow=3\n")
        missing = tmp_path / "missing.csv"
        code = run([
            "tune-sebb", "--scores", str(missing), "--truth", str(missing),
            "--durations", str(missing), "--grid", str(grid),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert f"usage error: {grid}:2: unknown grid key 'window'" in captured.err
        assert str(missing) not in captured.err.splitlines()[-1]
        assert captured.out == ""


class TestMalformedEventsAndDurations:
    """Each malformed event TSV or durations file is a data error at its line."""

    @pytest.mark.parametrize(
        "flag, text, line, message",
        [
            ("--events", "filename\tonset\toffset\tevent_label\na\t1.0\t2.0\n", 2,
             "expected 4 tab-separated fields, got 3"),
            ("--truth", "filename\tonset\toffset\tevent_label\na\t1\t2\tdog\textra\n", 2,
             "expected 4 tab-separated fields, got 5"),
            ("--events", "filename\tonset\toffset\tevent_label\na\t1.0\t2.0\tdog\na\tx\t2.0\tdog\n",
             3, "bad onset: 'x'"),
            ("--truth", "filename\tonset\toffset\tevent_label\na\t2.0\t2.0\tdog\n", 2,
             "offset 2.0 must exceed onset 2.0"),
            ("--events", "filename\tonset\toffset\tevent_label\na\t3.0\t1.0\tdog\n", 2,
             "offset 1.0 must exceed onset 3.0"),
            ("--truth", "filename\tonset\toffset\tevent_label\na\t-1.0\t2.0\tdog\n", 2,
             "onset must be >= 0, got -1.0"),
            ("--events", "a\t1.0\t2.0\tdog\n", 1,
             "expected header 'filename\\tonset\\toffset\\tevent_label'"),
            ("--durations", "a\t100\nb\t5\na\t100\n", 3, "key 'a' is already set at {path}:1"),
            ("--durations", "# clips\na\tinf\n", 2, "duration must be finite and > 0, got inf"),
            ("--durations", "a\tnan\n", 1, "duration must be finite and > 0, got nan"),
        ],
    )
    def test_is_data_error_at_its_line(self, tmp_path, capsys, flag, text, line, message):
        paths = dict(zip(("--events", "--truth", "--durations"), _perfect_fixture(tmp_path)))
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        paths[flag] = bad
        code = run(["evaluate", "--psds"] + [str(part) for item in paths.items() for part in item])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines()[-1] == (
            f"error: {bad}:{line}: " + message.format(path=bad)
        )
        assert "Traceback" not in captured.err
        assert captured.out == ""


def _fmt_with(raw: bytes, at: int, new: bytes) -> bytes:
    return raw[:at] + new + raw[at + len(new):]


class TestMalformedFmt:
    """Each malformed ``.fmt`` file is a data error that names it, for each reader."""

    # The fixture's file: 20 header bytes, 4 x (1, 4, 8) float32, tags D D M M.
    @pytest.mark.parametrize(
        "malform, message",
        [
            (lambda raw: b"FMT2" + raw[4:], "not a FMT1 tensor file"),
            (lambda raw: raw[:19], "not a FMT1 tensor file"),
            (lambda raw: _fmt_with(raw, 8, bytes(4)), "degenerate dims N=4 C=0 F=4 T=8"),
            (lambda raw: raw[:-1], "file is 535 bytes, expected 536 for dims N=4 C=1 F=4 T=8"),
            (lambda raw: raw[:-1] + b"\x02", "domain tag bytes must be 0 or 1"),
            (lambda raw: _fmt_with(raw, 20, np.float32(np.nan).tobytes()),
             "tensor payload contains NaN or Inf"),
        ],
        ids=["magic", "short", "zero-dim", "size", "tag-2", "nan"],
    )
    @pytest.mark.parametrize("command", ["stats", "augment"])
    def test_is_data_error_naming_the_file(self, tmp_path, capsys, fmt_file, command,
                                           malform, message):
        bad = tmp_path / "bad.fmt"
        bad.write_bytes(malform(fmt_file.read_bytes()))
        self._assert_refused(tmp_path, capsys, command, bad, message)

    @pytest.mark.parametrize("p", ["0", "1"])  # whether or not the draw mixes
    def test_maestro_before_desed_is_data_error_for_augment(self, tmp_path, capsys, fmt_file, p):
        # stats takes the tags in any order; mixing needs DESED, then MAESTRO.
        bad = tmp_path / "bad.fmt"
        bad.write_bytes(fmt_file.read_bytes()[:-4] + bytes([1, 1, 0, 0]))
        assert run(["stats", "--in", str(bad), "--out", str(tmp_path / "s.csv")]) == 0
        self._assert_refused(tmp_path, capsys, "augment", bad,
                             "batch must be a DESED block followed by a MAESTRO block", "--p", p)

    def _assert_refused(self, tmp_path, capsys, command, bad, message, *flags):
        out = tmp_path / "out"
        code = run([command, "--in", str(bad), "--out", str(out), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines()[-1] == f"error: {bad}: {message}"
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestTextInputs:
    """Every text file a subcommand reads is UTF-8, or a data error at the bad line."""

    def _argv(self, tmp_path, bad_flag, bad):
        s = np.zeros((1, 200))
        s[0, 40:120] = 0.9
        scores = tmp_path / "scores.csv"
        write_scores([ScoreTrack(s, 0.02, ("dog",), "a")], scores)
        events, truth, durs = tmp_path / "events.tsv", tmp_path / "truth.tsv", tmp_path / "d.tsv"
        write_events([Event("a", "dog", 0.8, 2.4)], events)
        write_events([Event("a", "dog", 0.8, 2.4)], truth)
        write_durations({"a": 4.0}, durs)
        class_map = tmp_path / "map.tsv"
        class_map.write_text("dog\tanimal\n")
        grid = tmp_path / "grid.cfg"
        grid.write_text("filter_len=5,21\n")
        paths = {"--scores": scores, "--events": events, "--truth": truth,
                 "--durations": durs, "--class-map": class_map, "--grid": grid}
        paths[bad_flag] = bad
        if bad_flag == "--config":
            return ["evaluate", "--psds", "--config", str(bad)]
        if bad_flag in ("--scores", "--grid"):
            argv, flags = ["tune-sebb"], ("--scores", "--truth", "--durations", "--grid")
        else:
            argv, flags = ["evaluate", "--psds"], ("--events", "--truth", "--durations", "--class-map")
        return argv + [part for flag in flags for part in (flag, str(paths[flag]))]

    @pytest.mark.parametrize(
        "flag",
        ["--scores", "--events", "--truth", "--durations", "--class-map", "--grid", "--config"],
    )
    @pytest.mark.parametrize("data, line", [(b"\xff\xfe", 1), (b"# ok\n\n\xe9t\xe9\n", 3)])
    def test_bad_byte_is_data_error_at_its_line(self, tmp_path, capsys, flag, data, line):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data)
        code = run(self._argv(tmp_path, flag, bad))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines()[-1] == f"error: {bad}:{line}: not UTF-8 text"
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag, name", [("--scores", "scores.csv"), ("--events", "events.tsv")])
    def test_the_same_command_passes_with_good_files(self, tmp_path, capsys, flag, name):
        assert run(self._argv(tmp_path, flag, tmp_path / name)) == 0

    @pytest.mark.parametrize("command", ["postprocess", "tune-sebb", "evaluate"])
    def test_score_file_without_rows_is_data_error(self, tmp_path, capsys, command):
        argv = self._argv(tmp_path, "--scores", tmp_path / "scores.csv")
        scores = tmp_path / "empty.csv"
        scores.write_text("# hop_seconds=0.02\nclip_id,frame,dog\n\n")
        if command == "tune-sebb":
            argv[argv.index("--scores") + 1] = str(scores)
        elif command == "postprocess":
            argv = ["postprocess", "--scores", str(scores), "--out", str(tmp_path / "ev.tsv")]
        else:
            argv = ["evaluate", "--mpauc", "--segscores", str(scores),
                    "--segtruth", str(tmp_path / "scores.csv")]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines()[-1] == (
            f"error: {scores}:3: no score rows after the header"
        )
        assert captured.out == ""
