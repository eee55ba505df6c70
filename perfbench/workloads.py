"""The three benchmark workloads: one fixed timed round each, plus checks.

Every workload drives sedtk through its public entry points: the command
line through ``sedtk.cli.run``, in process, and the library calls a
training stack makes. Callees are looked up as module attributes at call
time, so the traced run's wrappers see them. Output checks read the files
with the benchmark's own parsers, not with sedtk's.

A round returns its phase times; ``summary`` turns the per-round times into
the workload's throughput figures (medians over rounds).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import resource
import statistics
import struct
import time
from pathlib import Path

import numpy as np

from sedtk import cli, core, dataio, metrics, mixstyle, norm, sebb

DEFAULT_SEED = 0
# Features may drift from the recorded reference by this much per log-mel
# value (natural-log units): 1e-3 is a 0.1% change of mel energy.
FEATURE_ATOL = 1e-3
FEATURE_RTOL = 1e-4
METRIC_TOL = 1e-9
FINGERPRINT_SAMPLES = 4096


class Context:
    """Counts attempted and failed operations; times and traces CLI calls."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    def cli(self, argv: list[str]) -> tuple[float, str, str]:
        """Run one subcommand; returns (seconds, stdout, stderr)."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        self.attempted += 1
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                code = cli.run(argv)
        except Exception as exc:  # a traceback out of the CLI is a failed call
            self.fail(f"{argv[0]} raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        if code not in (0, None):
            self.fail(f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
        return seconds, out.getvalue(), err.getvalue()


def cpu_seconds() -> float:
    """User + system CPU time of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_fmt_file(path) -> tuple[np.ndarray, bytes]:
    """The benchmark's own FMT1 reader: (N, C, F, T) float32 array, tag bytes."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"FMT1" or len(raw) < 20:
        raise ValueError(f"{path}: not a FMT1 file")
    n, c, f, t = struct.unpack("<4I", raw[4:20])
    count = n * c * f * t
    if len(raw) != 20 + 4 * count + n:
        raise ValueError(f"{path}: size does not match its dims")
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=20).reshape(n, c, f, t)
    return data, raw[20 + 4 * count:]


def feature_fingerprint(data: np.ndarray) -> np.ndarray:
    """Per-(item, mel bin) time means plus a fixed strided sample of values."""
    means = data.mean(axis=(1, 3), dtype=np.float64).ravel()
    flat = data.ravel()
    stride = max(1, flat.size // FINGERPRINT_SAMPLES)
    return np.concatenate([means, flat[::stride].astype(np.float64)])


def key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Workload:
    """One workload over one generated input directory."""

    def __init__(self, inputs: Path, out: Path, ctx: Context):
        self.inputs = inputs
        self.out = out
        self.ctx = ctx
        self.plan = json.loads((inputs / "plan.json").read_text(encoding="utf-8"))
        self.fingerprints: list[dict] = []
        out.mkdir(parents=True, exist_ok=True)

    def is_reference_run(self, reference: dict) -> bool:
        return self.plan["seed"] == DEFAULT_SEED and self.plan["size"] in reference

    def run_round(self) -> dict:
        """Time one fixed round; then record what it produced."""
        cpu = cpu_seconds()
        times = self.timed_round()
        times["cpu_s"] = cpu_seconds() - cpu
        self.fingerprints.append(self.fingerprint())
        return times

    def check_rounds(self) -> None:
        first = self.fingerprints[0] if self.fingerprints else None
        for i, fp in enumerate(self.fingerprints[1:], start=2):
            self.ctx.check(fp == first, f"round {i} outputs differ from round 1")


class FeaturePath(Workload):
    """WAV -> .fmt (two domains) -> joined batch -> stats/augment -> training."""

    def __init__(self, inputs: Path, out: Path, ctx: Context):
        super().__init__(inputs, out, ctx)
        self.upstream = np.load(inputs / self.plan["upstream"])

    def timed_round(self) -> dict:
        p, ctx, o = self.plan, self.ctx, self.out
        start = time.perf_counter()
        t_a, _, _ = ctx.cli(["features", "--in", self.inputs / p["desed_dir"],
                             "--out", o / "desed.fmt", "--domain", "desed"])
        t_b, _, _ = ctx.cli(["features", "--in", self.inputs / p["maestro_dir"],
                             "--out", o / "maestro.fmt", "--domain", "maestro"])
        a = core.read_fmt(o / "desed.fmt")
        b = core.read_fmt(o / "maestro.fmt")
        batch = core.make_batch(a.maps + b.maps, a.tags + b.tags)
        core.write_fmt(batch, o / "joined.fmt")
        ctx.attempted += 4
        t_fmt = 0.0
        for i, seed in enumerate(p["augment_seeds"]):
            t_fmt += ctx.cli(["stats", "--in", o / "joined.fmt", "--out", o / f"stats_{i}.csv"])[0]
            t_fmt += ctx.cli(["augment", "--in", o / "joined.fmt", "--out", o / f"aug_{i}.fmt",
                              "--p", "1", "--seed", seed])[0]
        t_train_start = time.perf_counter()
        self.grads = self.train(batch)
        end = time.perf_counter()
        return {"wall_s": end - start, "extract_s": t_a + t_b, "fmt_cli_s": t_fmt,
                "train_s": end - t_train_start}

    def train(self, batch) -> list[tuple[float, float, float]]:
        """Library training steps: mixstyle, then norm and its gradient per item."""
        p = self.plan
        params = norm.AdaResNormParams(**p["norm_params"])
        mix_cfg = mixstyle.MixStyleConfig(p=1.0)
        upstream = self.upstream
        sums = []
        for seed in p["train_seeds"]:
            mixed = mixstyle.freq_mixstyle(batch, mix_cfg, core.RandomSource(seed))
            d_a = d_b = d_c = 0.0
            for i, fmap in enumerate(mixed.maps):
                norm.ada_res_norm(fmap, params)
                g = norm.ada_res_norm_grad(fmap, params, upstream[i])
                d_a, d_b, d_c = d_a + g.d_a, d_b + g.d_b, d_c + g.d_c
            self.ctx.attempted += 1 + 2 * len(mixed.maps)
            sums.append((d_a, d_b, d_c))
        return sums

    def fingerprint(self) -> dict:
        files = ["desed.fmt", "maestro.fmt", "joined.fmt"]
        files += [f"aug_{i}.fmt" for i in range(len(self.plan["augment_seeds"]))]
        files += [f"stats_{i}.csv" for i in range(len(self.plan["augment_seeds"]))]
        fp = {f: sha256(self.out / f) for f in files if (self.out / f).exists()}
        fp["grads"] = self.grads
        return fp

    def fmt_cli_bytes(self) -> int:
        joined = (self.out / "joined.fmt").stat().st_size
        total = 0
        for i in range(len(self.plan["augment_seeds"])):
            total += 2 * joined + (self.out / f"aug_{i}.fmt").stat().st_size
        return total

    def summary(self, rounds: list[dict]) -> dict:
        p = self.plan
        n_clips = p["desed_clips"] + p["maestro_clips"]
        mb = self.fmt_cli_bytes() / 1e6 if (self.out / "joined.fmt").exists() else 0.0
        items = n_clips * len(p["train_seeds"])
        return {
            "extract_clips_per_s": (_median([n_clips / r["extract_s"] for r in rounds]), "clips/s"),
            "train_items_per_s": (_median([items / r["train_s"] for r in rounds]), "maps/s"),
            "fmt_cli_mb_per_s": (_median([mb / r["fmt_cli_s"] for r in rounds]), "MB/s"),
        }

    def check(self, reference: dict) -> None:
        p, ctx, o = self.plan, self.ctx, self.out
        n_d, n_m = p["desed_clips"], p["maestro_clips"]
        dims = (1, p["n_mels"], p["n_frames"])
        try:
            desed, desed_tags = read_fmt_file(o / "desed.fmt")
            maestro, maestro_tags = read_fmt_file(o / "maestro.fmt")
            joined, joined_tags = read_fmt_file(o / "joined.fmt")
        except (OSError, ValueError) as exc:
            ctx.check(False, f"feature output unreadable: {exc}")
            return
        ctx.check(desed.shape == (n_d, *dims) and desed_tags == bytes(n_d),
                  f"desed.fmt has shape {desed.shape}, tags {set(desed_tags)}")
        ctx.check(maestro.shape == (n_m, *dims) and maestro_tags == bytes([1] * n_m),
                  f"maestro.fmt has shape {maestro.shape}, tags {set(maestro_tags)}")
        ctx.check(bool(np.isfinite(joined).all()), "joined batch is not finite")
        ctx.check(joined_tags == desed_tags + maestro_tags
                  and np.array_equal(joined, np.concatenate([desed, maestro])),
                  "joined batch is not desed followed by maestro")
        for i in range(len(p["augment_seeds"])):
            aug, aug_tags = read_fmt_file(o / f"aug_{i}.fmt")
            ctx.check(aug.shape == joined.shape and aug_tags == joined_tags,
                      f"aug_{i}.fmt changed shape or domain tags")
            ctx.check(bool(np.isfinite(aug).all()) and not np.array_equal(aug, joined),
                      f"aug_{i}.fmt is not a finite, mixed batch")
            self._check_stats(o / f"stats_{i}.csv", joined, joined_tags)
        ctx.check(len(self.grads) == len(p["train_seeds"])
                  and all(math.isfinite(v) for g in self.grads for v in g),
                  "training gradients are not finite")
        # seeded augment of a fixed, generated batch (untimed)
        mix_in, mix_tags = read_fmt_file(self.inputs / p["mix_input"])
        ctx.cli(["augment", "--in", self.inputs / p["mix_input"], "--out", o / "mix_aug.fmt",
                 "--p", "1", "--seed", p["mix_check_seed"]])
        mix_out, mix_out_tags = read_fmt_file(o / "mix_aug.fmt")
        ctx.check(mix_out.shape == mix_in.shape and mix_out_tags == mix_tags,
                  "augment changed shape or domain tags")
        if self.is_reference_run(reference):
            ref = reference[p["size"]]["feature-path"]
            ctx.check(sha256(o / "mix_aug.fmt") == ref["mix_augment_sha256"],
                      "seeded augment output is not byte-identical to the reference")
            want = np.load(Path(__file__).parent / ref["features_fingerprint"])
            got = feature_fingerprint(joined)
            ok = got.shape == want.shape and np.allclose(
                got, want, rtol=FEATURE_RTOL, atol=FEATURE_ATOL)
            worst = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
            ctx.check(ok, f"features differ from the reference (max abs diff {worst:.3g})")

    def _check_stats(self, path: Path, joined: np.ndarray, tags: bytes) -> None:
        rows = path.read_text(encoding="utf-8").splitlines()
        names = [r.split(",", 1)[0] for r in rows]
        want_names = ["DESED" if t == 0 else "MAESTRO" for t in tags]
        mu = np.array([[float(v) for v in r.split(",")[1:1 + joined.shape[2]]] for r in rows])
        want_mu = joined.mean(axis=(1, 3), dtype=np.float64)
        self.ctx.check(names == want_names and mu.shape == want_mu.shape
                       and np.allclose(mu, want_mu, rtol=1e-6, atol=1e-5),
                       f"{path.name} rows do not match the batch statistics")


class Tune(Workload):
    """`sedtk tune-sebb` over a validation set and a small grid."""

    def timed_round(self) -> dict:
        p, i = self.plan, self.inputs
        seconds, self.stdout, _ = self.ctx.cli([
            "tune-sebb", "--scores", i / p["scores"], "--truth", i / p["truth"],
            "--durations", i / p["durations"], "--grid", i / p["grid"],
            "--out", self.out / "tuned.cfg"])
        return {"wall_s": seconds, "tune_s": seconds}

    def fingerprint(self) -> dict:
        return {"stdout": self.stdout}

    def summary(self, rounds: list[dict]) -> dict:
        n = self.plan["grid_points"]
        return {"tune_grid_points_per_s": (_median([n / r["tune_s"] for r in rounds]), "points/s")}

    def grid_psds(self) -> list[tuple[tuple, float]]:
        """PSDS of every grid point, in tune_csebb's order, via library calls."""
        p, i = self.plan, self.inputs
        tracks = dataio.read_scores(i / p["scores"])
        truth = metrics.AnnotationSet(
            events=dataio.read_annotations(i / p["truth"]).events,
            clip_durations=dataio.read_durations(i / p["durations"]),
        )
        psds_cfg = metrics.PsdsConfig()
        axes = p["grid_axes"]
        out = []
        for fl, bt, ma in itertools.product(
                sorted(axes["filter_len"]), sorted(axes["boundary_threshold"]),
                sorted(axes["merge_threshold_abs"])):
            cfg = sebb.CsebbConfig(filter_len=fl, boundary_threshold=bt, merge_threshold_abs=ma)
            boxes = [(tr.clip_id, sebb.detect_sebbs(tr, cfg)) for tr in tracks]
            per_threshold = [
                [metrics.Event(clip, s.class_name, s.onset_s, s.offset_s)
                 for clip, found in boxes for s in found if s.confidence >= tau]
                for tau in psds_cfg.thresholds
            ]
            curve = metrics.psd_roc(per_threshold, truth, psds_cfg)
            out.append(((fl, bt, ma), metrics.psds(curve, psds_cfg)))
        return out

    def check(self, reference: dict) -> None:
        ctx, p = self.ctx, self.plan
        got = key_values(self.stdout)
        ctx.check(sorted(got) == ["boundary_threshold", "filter_len",
                                  "merge_threshold_abs", "merge_threshold_rel"],
                  f"tune-sebb printed {self.stdout!r}")
        saved = self.out / "tuned.cfg"
        ctx.check(saved.exists() and saved.read_text(encoding="utf-8") == self.stdout,
                  "tuned.cfg differs from the printed config")
        grid = self.grid_psds()
        self.grid_values = [round(v, 6) for _, v in grid]
        ctx.check(all(0.0 <= v <= 1.0 for _, v in grid), f"PSDS outside [0, 1]: {grid}")
        best = None
        for point, value in grid:  # tune_csebb's rule: first strictly better wins
            if best is None or value > best[1] + 1e-12:
                best = (point, value)
        fl, bt, ma = best[0]
        try:
            tuned = (int(got["filter_len"]), float(got["boundary_threshold"]),
                     float(got["merge_threshold_abs"]))
        except (KeyError, ValueError):
            tuned = None
        ctx.check(tuned == (fl, bt, ma), f"tuned config {tuned} is not the best grid point {best}")
        if self.is_reference_run(reference):
            ref = reference[p["size"]]["tune"]
            ctx.check(self.stdout == ref["tuned"], "tuned config differs from the reference")
            values = [v for _, v in grid]
            ctx.check(all(0.05 < v < 0.95 for v in values) and max(values) - min(values) > 0.01,
                      f"grid PSDS should differ and stay inside (0, 1): {values}")


class Score(Workload):
    """`postprocess` then `evaluate --psds` and `evaluate --mpauc` on a test set."""

    def timed_round(self) -> dict:
        p, i, o, ctx = self.plan, self.inputs, self.out, self.ctx
        c = p["config"]
        start = time.perf_counter()
        t_pp, _, _ = ctx.cli([
            "postprocess", "--scores", i / p["scores"], "--out", o / "events.tsv",
            "--filter-len", c["filter_len"], "--boundary", c["boundary"],
            "--merge-abs", c["merge_abs"], "--merge-rel", c["merge_rel"],
            "--threshold", c["threshold"]])
        t_psds, self.psds_out, self.psds_err = ctx.cli([
            "evaluate", "--events", o / "events.tsv", "--truth", i / p["truth"],
            "--durations", i / p["durations"], "--psds"])
        t_mpauc, self.mpauc_out, self.mpauc_err = ctx.cli([
            "evaluate", "--segscores", i / p["seg_scores"], "--segtruth", i / p["seg_truth"],
            "--mpauc"])
        end = time.perf_counter()
        return {"wall_s": end - start, "postprocess_s": t_pp, "evaluate_s": t_psds + t_mpauc}

    def fingerprint(self) -> dict:
        events = self.out / "events.tsv"
        return {"events": sha256(events) if events.exists() else None,
                "psds": self.psds_out, "mpauc": self.mpauc_out}

    def summary(self, rounds: list[dict]) -> dict:
        n = self.plan["clips"]
        return {
            "postprocess_clips_per_s": (_median([n / r["postprocess_s"] for r in rounds]), "clips/s"),
            "evaluate_clips_per_s": (_median([n / r["evaluate_s"] for r in rounds]), "clips/s"),
        }

    def check(self, reference: dict) -> None:
        ctx, p = self.ctx, self.plan
        clips = {line.split("\t")[0] for line in
                 (self.inputs / p["durations"]).read_text(encoding="utf-8").splitlines()}
        classes = set(p["classes"])
        lines = (self.out / "events.tsv").read_text(encoding="utf-8").splitlines()
        ctx.check(bool(lines) and lines[0] == "filename\tonset\toffset\tevent_label",
                  "events.tsv header is wrong")
        bad = []
        for line in lines[1:]:
            clip, on, off, cls = line.split("\t")
            if not (clip in clips and cls in classes
                    and 0.0 <= float(on) < float(off) <= p["clip_s"] + 1e-6):
                bad.append(line)
        ctx.check(len(lines) > 1 and not bad,
                  f"{len(bad)} events outside their clip or class set, e.g. {bad[:1]}")
        psds_v = key_values(self.psds_out).get("psds")
        mpauc_kv = key_values(self.mpauc_out)
        ctx.check(psds_v is not None and 0.0 <= float(psds_v) <= 1.0, f"psds= {psds_v}")
        ctx.check("mpauc" in mpauc_kv and 0.0 <= float(mpauc_kv["mpauc"]) <= 1.0
                  and "mpauc_excluded" not in mpauc_kv, f"mpauc report {self.mpauc_out!r}")
        ctx.check("warning" not in (self.psds_err + self.mpauc_err).lower(),
                  "evaluate warned about a class without truth or without negatives")
        if self.is_reference_run(reference):
            ref = reference[p["size"]]["score"]
            ctx.check(sha256(self.out / "events.tsv") == ref["events_sha256"],
                      "postprocess events differ from the reference")
            ctx.check(psds_v is not None and abs(float(psds_v) - ref["psds"]) <= METRIC_TOL,
                      f"psds={psds_v}, reference {ref['psds']}")
            ctx.check("mpauc" in mpauc_kv
                      and abs(float(mpauc_kv["mpauc"]) - ref["mpauc"]) <= METRIC_TOL,
                      f"mpauc={mpauc_kv.get('mpauc')}, reference {ref['mpauc']}")


WORKLOADS = {"feature-path": FeaturePath, "tune": Tune, "score": Score}

# Spans each workload must fire in the traced run; the rest are bypassed.
EXPECTED_SPANS = {
    "feature-path": (
        "cli.features", "cli.stats", "cli.augment",
        "frontend.read_wav", "frontend.resample_to_mono_16k", "frontend.log_mel",
        "core.write_fmt", "core.read_fmt", "core.make_batch", "core.beta_sample",
        "stats.export_stats", "stats.freq_stats",
        "mixstyle.freq_mixstyle", "mixstyle.make_reference_batch",
        "norm.ada_res_norm", "norm.ada_res_norm_grad",
    ),
    "tune": (
        "cli.tune-sebb", "dataio.read_scores", "dataio.read_annotations",
        "sebb.tune_csebb", "sebb.detect_sebbs", "sebb.detect_candidates", "sebb.merge_gaps",
        "metrics.psd_roc", "metrics.intersection_match", "metrics.psds",
    ),
    "score": (
        "cli.postprocess", "cli.evaluate",
        "dataio.read_scores", "dataio.read_annotations", "dataio.write_events",
        "sebb.detect_sebbs", "sebb.detect_candidates", "sebb.merge_gaps",
        "sebb.threshold_events", "metrics.psd_roc", "metrics.intersection_match",
        "metrics.psds", "metrics.segmentize", "metrics.mpauc_report",
        "metrics.partial_roc_auc",
    ),
}
