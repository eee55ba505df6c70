"""Per-instance frequency-wise and channel-wise feature statistics.

One mean/std pair per frequency bin (reduced over channel and time) or per
channel (reduced over frequency and time). Std is the population form.
``centred_moments`` computes these moments, and the centred input, for
:mod:`sedtk.mixstyle` and :mod:`sedtk.norm` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Batch, DomainTag, FeatureMap, atomic_open
from .errors import InvalidParameterError


@dataclass(frozen=True)
class FreqStats:
    """Per-frequency-bin mean and population std, each of length F."""

    mu: np.ndarray
    sigma: np.ndarray


def centred_moments(
    x: np.ndarray, axis: tuple[int, ...], out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float64 mean and population variance of ``x`` over ``axis``, and ``x - mean``.

    The mean and variance keep the reduced axes (size 1), so they broadcast
    against ``x``. They are ``x.mean`` and ``x.var`` with ``dtype=np.float64``
    bit for bit, from one sum for the mean as both take it. The centred
    array is float64 and is written to ``out`` when given (``x`` itself may
    be ``out`` if it is float64).
    """
    count = math.prod(x.shape[a] for a in axis)
    mu = np.add.reduce(x, axis=axis, dtype=np.float64, keepdims=True)
    mu /= count
    centred = np.subtract(x, mu, out=out)
    var = np.add.reduce(np.square(centred), axis=axis, dtype=np.float64, keepdims=True)
    var /= count
    return mu, var, centred


def bin_moments(x: np.ndarray, axis: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The float64 mean and population variance of :func:`centred_moments`."""
    return centred_moments(x, axis)[:2]


def freq_stats(fmap: FeatureMap) -> FreqStats:
    """Statistics over (channel, time) for each frequency bin."""
    mu, var = bin_moments(fmap.data, (0, 2))
    return FreqStats(mu=mu.ravel(), sigma=np.sqrt(var).ravel())


def export_stats(batch: Batch, which: str, path) -> int:
    """Write one row per batch item: ``tag,mu...,sigma...`` (2F or 2C values).

    The rows are the concatenated statistic vectors consumed by external
    embedding/visualization tools. Returns the number of rows written.
    """
    if which == "frequency":
        vectors = [(st.mu, st.sigma) for st in map(freq_stats, batch.maps)]
    elif which == "channel":  # over (frequency, time) for each channel
        moments = (bin_moments(m.data, (1, 2)) for m in batch.maps)
        vectors = [(mu.ravel(), np.sqrt(var).ravel()) for mu, var in moments]
    else:
        raise InvalidParameterError(
            f"which must be 'frequency' or 'channel', got {which!r}"
        )
    with atomic_open(path) as fh:
        for tag, (mu, sigma) in zip(batch.tags, vectors):
            # one %-format per row; "%.9g" spells each value as f"{v:.9g}" does
            row = DomainTag(tag).name + ",%.9g" * (mu.size + sigma.size) + "\n"
            fh.write(row % (*mu.tolist(), *sigma.tolist()))
    return len(batch)
