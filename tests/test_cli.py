"""Command-line behavior: exit codes, reports, determinism, input safety."""

import numpy as np
import pytest

from sedtk.cli import run
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

    def test_needs_a_metric_flag(self, tmp_path):
        assert run(["evaluate"]) == 1


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


class TestPostprocessAndTune:
    def _scores_fixture(self, tmp_path):
        s = np.zeros((1, 200))
        s[0, 40:120] = 0.9
        track = ScoreTrack(scores=s, hop_seconds=0.02, class_names=("dog",), clip_id="a")
        path = tmp_path / "scores.csv"
        write_scores([track], path)
        return path

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

    def test_postprocess_threshold_filters(self, tmp_path):
        scores = self._scores_fixture(tmp_path)
        out = tmp_path / "events.tsv"
        run(["postprocess", "--scores", str(scores), "--out", str(out), "--threshold", "0.95"])
        assert len(out.read_text().splitlines()) == 1  # header only

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
            ("postprocess", "--config", "# tuned\nfilter_len=abc\n", 2),
            ("postprocess", "--config", "filter_len=5\nthreshold=high\n", 2),
            ("postprocess", "--config", "filter_len 5\n", 1),
            ("postprocess", "--thresholds-file", "Speech\tabc\n", 1),
            ("postprocess", "--thresholds-file", "# per class\nSpeech 0.3\n", 2),
            ("features", "--config", "n_mels=16\ndomain=foo\n", 2),
        ],
    )
    def test_bad_file_value_is_usage_error(
        self, tmp_path, capsys, command, flag, text, line
    ):
        scores = self._scores_fixture(tmp_path)
        truth, durs = tmp_path / "truth.tsv", tmp_path / "durs.tsv"
        write_events([Event("a", "dog", 40 * 0.02, 120 * 0.02)], truth)
        write_durations({"a": 4.0}, durs)
        values = tmp_path / "values.cfg"
        values.write_text(text)
        wav_dir = tmp_path / "wavs"  # a WAV that fails to decode: the value is checked first
        wav_dir.mkdir()
        (wav_dir / "bad.wav").write_bytes(b"nope")
        argv = {
            "tune-sebb": ["tune-sebb", "--scores", str(scores), "--truth", str(truth),
                          "--durations", str(durs)],
            "postprocess": ["postprocess", "--scores", str(scores),
                            "--out", str(tmp_path / "ev.tsv")],
            "features": ["features", "--in", str(wav_dir), "--out", str(tmp_path / "f.fmt")],
        }[command]
        code = run(argv + [flag, str(values)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"usage error: {values}:{line}:" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
