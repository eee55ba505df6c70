"""Per-instance frequency-wise and channel-wise feature statistics.

One mean/std pair per frequency bin (reduced over channel and time) or per
channel (reduced over frequency and time). Std is the population form.
``bin_moments`` computes these moments for :mod:`sedtk.mixstyle` and
:mod:`sedtk.norm` too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Batch, DomainTag, FeatureMap, atomic_open
from .errors import InvalidParameterError


@dataclass(frozen=True)
class FreqStats:
    """Per-frequency-bin mean and population std, each of length F."""

    mu: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class ChanStats:
    """Per-channel mean and population std, each of length C."""

    mu: np.ndarray
    sigma: np.ndarray


def bin_moments(x: np.ndarray, axis: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Float64 mean and population variance of ``x`` over ``axis``.

    Both keep the reduced axes (size 1), so they broadcast against ``x``.
    """
    mu = x.mean(axis=axis, dtype=np.float64, keepdims=True)
    var = x.var(axis=axis, dtype=np.float64, keepdims=True)
    return mu, var


def freq_stats(fmap: FeatureMap) -> FreqStats:
    """Statistics over (channel, time) for each frequency bin."""
    mu, var = bin_moments(fmap.data, (0, 2))
    return FreqStats(mu=mu.ravel(), sigma=np.sqrt(var).ravel())


def chan_stats(fmap: FeatureMap) -> ChanStats:
    """Statistics over (frequency, time) for each channel."""
    mu, var = bin_moments(fmap.data, (1, 2))
    return ChanStats(mu=mu.ravel(), sigma=np.sqrt(var).ravel())


def export_stats(batch: Batch, which: str, path) -> int:
    """Write one row per batch item: ``tag,mu...,sigma...`` (2F or 2C values).

    The rows are the concatenated statistic vectors consumed by external
    embedding/visualization tools. Returns the number of rows written.
    """
    if which == "frequency":
        vectors = [freq_stats(m) for m in batch.maps]
    elif which == "channel":
        vectors = [chan_stats(m) for m in batch.maps]
    else:
        raise InvalidParameterError(
            f"which must be 'frequency' or 'channel', got {which!r}"
        )
    with atomic_open(path) as fh:
        for tag, st in zip(batch.tags, vectors):
            values = np.concatenate([st.mu, st.sigma])
            fh.write(DomainTag(tag).name + ",")
            fh.write(",".join(f"{v:.9g}" for v in values))
            fh.write("\n")
    return len(batch)
