"""Domain-generalization toolkit for sound event detection pipelines.

Library surface: domain-tagged feature-map batches with a deterministic
random source (`core`), per-instance frequency/channel statistics
(`stats`), frequency-wise feature-statistics mixing (`mixstyle`),
frequency instance normalization with a trainable residual blend (`norm`),
log-mel feature extraction (`frontend`), change-point event bounding boxes
(`sebb`), PSDS and macro partial-AUC metrics (`metrics`), and the shared
file formats (`dataio`). The `sedtk` command line exposes the batch
pipeline; see `sedtk.cli`.
"""

from .core import (
    Batch,
    DomainTag,
    FeatureMap,
    RandomSource,
    beta_sample,
    make_batch,
    read_fmt,
    write_fmt,
)
from .stats import ChanStats, FreqStats, bin_moments, chan_stats, export_stats, freq_stats
from .mixstyle import MixStyleConfig, freq_mixstyle, make_reference_batch
from .norm import AdaResNormParams, NormGradients, ada_res_norm, ada_res_norm_grad, freq_in
from .frontend import AudioClip, MelConfig, log_mel, read_wav, resample_to_mono_16k
from .sebb import (
    SEBB,
    CsebbConfig,
    ScoreTrack,
    delta_scores,
    detect_candidates,
    detect_sebbs,
    merge_gaps,
    threshold_events,
    tune_csebb,
)
from .metrics import (
    AnnotationSet,
    Event,
    PsdsConfig,
    intersection_match,
    joint_score,
    mpauc_report,
    partial_roc_auc,
    psd_roc,
    psds,
    segmentize,
)

__version__ = "0.1.0"

__all__ = [
    "AdaResNormParams",
    "AnnotationSet",
    "AudioClip",
    "Batch",
    "ChanStats",
    "CsebbConfig",
    "DomainTag",
    "Event",
    "FeatureMap",
    "FreqStats",
    "MelConfig",
    "MixStyleConfig",
    "NormGradients",
    "PsdsConfig",
    "RandomSource",
    "SEBB",
    "ScoreTrack",
    "ada_res_norm",
    "ada_res_norm_grad",
    "beta_sample",
    "bin_moments",
    "chan_stats",
    "delta_scores",
    "detect_candidates",
    "detect_sebbs",
    "export_stats",
    "freq_in",
    "freq_mixstyle",
    "freq_stats",
    "intersection_match",
    "joint_score",
    "log_mel",
    "make_batch",
    "make_reference_batch",
    "merge_gaps",
    "mpauc_report",
    "partial_roc_auc",
    "psd_roc",
    "psds",
    "read_fmt",
    "read_wav",
    "resample_to_mono_16k",
    "segmentize",
    "threshold_events",
    "tune_csebb",
    "write_fmt",
]
