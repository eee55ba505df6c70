"""Span recorder for the traced benchmark run.

Each public function in ``PATCHES`` is wrapped at every name its callers
look it up by (``cli`` imports the front end and ``.fmt`` helpers directly,
``sebb`` imports ``psd_roc`` and ``psds``, ``mixstyle`` imports
``beta_sample``), so a call is recorded however it is reached. A span holds
its name, start, end and parent id; spans stay in memory until the run
writes them out. Self time is a span's duration minus the time its direct
children cover; calls are single-threaded, so children never overlap.

Wrappers are installed only around traced rounds and removed afterwards,
so untraced rounds run the program unmodified.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import defaultdict


def _size_of(path) -> int:
    return os.path.getsize(path)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> (bindings to patch, counter(args, kwargs, result) -> {count: n})
PATCHES = {
    "frontend.read_wav": (
        [("sedtk.frontend", "read_wav"), ("sedtk.cli", "read_wav")],
        lambda a, k, r: {"frontend.samples_in": int(r.samples.size)},
    ),
    "frontend.resample_to_mono_16k": (
        [("sedtk.frontend", "resample_to_mono_16k"), ("sedtk.cli", "resample_to_mono_16k")],
        None,
    ),
    "frontend.log_mel": (
        [("sedtk.frontend", "log_mel"), ("sedtk.cli", "log_mel")],
        lambda a, k, r: {"frontend.frames_out": int(r.shape[-1])},
    ),
    "core.write_fmt": (
        [("sedtk.core", "write_fmt"), ("sedtk.cli", "write_fmt")],
        lambda a, k, r: {"core.fmt_bytes": _size_of(_arg(a, k, 1, "path"))},
    ),
    "core.read_fmt": (
        [("sedtk.core", "read_fmt"), ("sedtk.cli", "read_fmt")],
        lambda a, k, r: {"core.fmt_bytes": _size_of(_arg(a, k, 0, "path"))},
    ),
    "core.make_batch": ([("sedtk.core", "make_batch"), ("sedtk.cli", "make_batch")], None),
    "core.beta_sample": ([("sedtk.core", "beta_sample"), ("sedtk.mixstyle", "beta_sample")], None),
    "stats.export_stats": ([("sedtk.stats", "export_stats")], None),
    "stats.freq_stats": ([("sedtk.stats", "freq_stats")], None),
    "mixstyle.freq_mixstyle": ([("sedtk.mixstyle", "freq_mixstyle")], None),
    "mixstyle.make_reference_batch": ([("sedtk.mixstyle", "make_reference_batch")], None),
    "norm.ada_res_norm": ([("sedtk.norm", "ada_res_norm")], None),
    "norm.ada_res_norm_grad": ([("sedtk.norm", "ada_res_norm_grad")], None),
    "dataio.read_scores": (
        [("sedtk.dataio", "read_scores")],
        lambda a, k, r: {"dataio.read_scores.bytes": _size_of(_arg(a, k, 0, "path"))},
    ),
    "dataio.read_annotations": ([("sedtk.dataio", "read_annotations")], None),
    "dataio.write_events": ([("sedtk.dataio", "write_events")], None),
    "sebb.tune_csebb": ([("sedtk.sebb", "tune_csebb")], None),
    "sebb.detect_sebbs": ([("sedtk.sebb", "detect_sebbs")], None),
    "sebb.detect_candidates": (
        [("sedtk.sebb", "detect_candidates")],
        lambda a, k, r: {"sebb.candidates": sum(len(v) for v in r.values())},
    ),
    "sebb.merge_gaps": ([("sedtk.sebb", "merge_gaps")], None),
    "sebb.threshold_events": (
        [("sedtk.sebb", "threshold_events")],
        lambda a, k, r: {"sebb.kept": len(r)},
    ),
    "metrics.psd_roc": ([("sedtk.metrics", "psd_roc"), ("sedtk.sebb", "psd_roc")], None),
    "metrics.intersection_match": (
        [("sedtk.metrics", "intersection_match")],
        lambda a, k, r: {"metrics.intersection_match.dets_in": len(_arg(a, k, 0, "dets"))},
    ),
    "metrics.psds": ([("sedtk.metrics", "psds"), ("sedtk.sebb", "psds")], None),
    "metrics.segmentize": (
        [("sedtk.metrics", "segmentize")],
        lambda a, k, r: {"metrics.segment_cells": len(r)},
    ),
    "metrics.mpauc_report": ([("sedtk.metrics", "mpauc_report")], None),
    "metrics.partial_roc_auc": ([("sedtk.metrics", "partial_roc_auc")], None),
}

# Spans the benchmark opens itself around each `sedtk.cli.run` call.
CLI_SPANS = tuple(
    f"cli.{cmd}"
    for cmd in ("features", "stats", "augment", "postprocess", "tune-sebb", "evaluate")
)
CALL_COUNTED = ("sebb.detect_sebbs", "metrics.psd_roc", "metrics.intersection_match")
COUNTS = {
    "frontend.samples_in": "count",
    "frontend.frames_out": "count",
    "core.fmt_bytes": "bytes",
    "core.featuremaps_built": "count",
    "dataio.read_scores.bytes": "bytes",
    "sebb.candidates": "count",
    "sebb.kept": "count",
    "metrics.intersection_match.dets_in": "count",
    "metrics.segment_cells": "count",
}


def per_layer_catalogue() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    names = {f"{s}.self_s": "s" for s in [*PATCHES, *CLI_SPANS]}
    names.update({f"{s}.calls": "count" for s in CALL_COUNTED})
    names.update(COUNTS)
    names["sebb.detect_per_clip_point"] = "ratio"
    names["trace.overhead_s"] = "s"
    return names


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.unpatched: set[str] = set()
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 1

    @contextlib.contextmanager
    def span(self, name: str):
        sid, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        except Exception:
            self.errors[name.split(".")[0]] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    counted = counter(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, OSError):
                    self.uncounted.add(name)  # the call's signature or result changed
                    counted = {}
                for key, n in counted.items():
                    self.counts[key] += n
            return result

        return traced

    def _count_calls(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding in PATCHES for the duration of the block."""
        saved = []
        try:
            for name, (bindings, counter) in PATCHES.items():
                for mod_name, attr in bindings:
                    mod = importlib.import_module(mod_name)
                    if not hasattr(mod, attr):
                        self.unpatched.add(f"{mod_name}.{attr}")
                        continue
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self._wrap(name, original, counter))
            feature_map = importlib.import_module("sedtk.core").FeatureMap
            original = feature_map.__post_init__
            saved.append((feature_map, "__post_init__", original))
            feature_map.__post_init__ = self._count_calls("core.featuremaps_built", original)
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, _, name, start, end in self.spans:
            self_s[name] += (end - start) - child_time[sid]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def write(self, path) -> None:
        """Write the raw spans as JSON: [id, parent, name, start, end] rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
