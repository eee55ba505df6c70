"""Frequency-wise feature-statistics mixing for domain generalization.

A batch ordered as a DESED block followed by a MAESTRO block is paired with
a reference batch built by swapping the two domain blocks and shuffling.
Each instance is normalized per frequency bin by its own statistics and
re-denormalized with a convex mixture of its own and its reference
instance's statistics; the mixture weight is a per-instance Beta draw.
Labels are never touched: only the feature values change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Batch, DomainTag, FeatureMap, RandomSource, beta_sample
from .errors import ConfigInvalidError, InvalidParameterError, ShapeMismatchError
from .stats import FreqStats


@dataclass(frozen=True)
class MixStyleConfig:
    """Application probability, Beta coefficient, and division guard."""

    p: float = 0.5
    alpha: float = 0.6
    eps: float = 1e-5

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ConfigInvalidError(f"p must be in [0,1], got {self.p}")
        if not 0 < self.alpha < float("inf"):
            raise ConfigInvalidError(f"alpha must be finite and > 0, got {self.alpha}")
        if not self.eps > 0:
            raise ConfigInvalidError(f"eps must be > 0, got {self.eps}")


@dataclass(frozen=True)
class MixedStats:
    """Convex mixture of two instances' per-bin statistics.

    ``mu`` mixes the means, ``sigma`` mixes the stds, with weight ``lam`` on
    the instance's own statistics.
    """

    mu: np.ndarray
    sigma: np.ndarray
    lam: float


def make_reference_batch(
    batch: Batch, rng: RandomSource, permutation=None
) -> Batch:
    """Build the reference batch: swap the two domain blocks, then shuffle.

    The input must be ordered as a (possibly empty) DESED block followed by
    a (possibly empty) MAESTRO block. The output is a permutation of the
    input items; ``permutation`` overrides the random shuffle for testing.
    """
    tags = batch.tags
    n = len(batch)
    split = n
    for i, t in enumerate(tags):
        if t == DomainTag.MAESTRO:
            split = i
            break
    if any(t == DomainTag.DESED for t in tags[split:]):
        raise InvalidParameterError(
            "batch must be a DESED block followed by a MAESTRO block"
        )
    swapped = list(range(split, n)) + list(range(split))
    if permutation is None:
        perm = rng.permutation(n)
    else:
        perm = np.asarray(permutation)
        if sorted(perm.tolist()) != list(range(n)):
            raise InvalidParameterError("permutation must reorder 0..N-1")
    order = [swapped[p] for p in perm]
    return Batch(
        maps=tuple(batch.maps[i] for i in order),
        tags=tuple(batch.tags[i] for i in order),
    )


def mix_statistics(
    x_stats: FreqStats, ref_stats: FreqStats, lam: float
) -> MixedStats:
    """Convex combination of own and reference per-bin statistics."""
    if x_stats.mu.shape != ref_stats.mu.shape:
        raise ShapeMismatchError(
            f"stat lengths differ: {x_stats.mu.shape} vs {ref_stats.mu.shape}"
        )
    if not 0.0 <= lam <= 1.0:
        raise InvalidParameterError(f"lambda must be in [0,1], got {lam}")
    mu = lam * x_stats.mu + (1.0 - lam) * ref_stats.mu
    sigma = lam * x_stats.sigma + (1.0 - lam) * ref_stats.sigma
    return MixedStats(mu=mu, sigma=sigma, lam=lam)


def freq_mixstyle(
    batch: Batch,
    cfg: MixStyleConfig,
    rng: RandomSource,
    lam=None,
    permutation=None,
) -> Batch:
    """Apply frequency-wise statistics mixing to a whole batch.

    One Bernoulli(p) draw gates the batch: with probability 1-p the input
    batch is returned unchanged. Otherwise each instance i is normalized by
    its own per-bin (mu, sigma) over (channel, time) and re-denormalized
    with the lam_i-mixture of its own and its reference instance's
    statistics:

        out = sigma_mix * (x - mu) / (sigma + eps) + mu_mix

    lam_i are per-instance Beta(alpha, alpha) draws unless ``lam`` pins them
    (scalar or length-N array); ``permutation`` pins the reference shuffle.
    Domain tags are preserved from the input; shape is preserved.
    """
    applied = rng.bernoulli(cfg.p)
    if not applied:
        return batch
    n = len(batch)
    ref = make_reference_batch(batch, rng, permutation=permutation)
    if lam is None:
        lam_vec = beta_sample(rng, cfg.alpha, size=n)
    else:
        lam_vec = np.broadcast_to(np.asarray(lam, dtype=np.float64), (n,))
        if np.any(lam_vec < 0) or np.any(lam_vec > 1):
            raise InvalidParameterError("lambda values must be in [0,1]")

    x = batch.stack().astype(np.float64)
    r = ref.stack().astype(np.float64)
    mu_x = x.mean(axis=(1, 3))    # (N, F)
    sd_x = x.std(axis=(1, 3))
    mu_r = r.mean(axis=(1, 3))
    sd_r = r.std(axis=(1, 3))

    w = lam_vec[:, None]
    mu_mix = w * mu_x + (1.0 - w) * mu_r
    sd_mix = w * sd_x + (1.0 - w) * sd_r

    def per_bin(a):  # (N, F) -> broadcastable over (N, C, F, T)
        return a[:, None, :, None]

    out = per_bin(sd_mix) * (x - per_bin(mu_x)) / (per_bin(sd_x) + cfg.eps)
    out += per_bin(mu_mix)
    maps = tuple(FeatureMap(out[i].astype(np.float32)) for i in range(n))
    return Batch(maps=maps, tags=batch.tags)
