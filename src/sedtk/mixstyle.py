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

from .core import Batch, DomainTag, RandomSource, beta_sample
from .errors import ConfigInvalidError, InvalidParameterError
from .stats import bin_moments, centred_moments


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


def _domain_split(tags) -> int:
    """Index of the first MAESTRO item of a DESED block followed by a MAESTRO block."""
    split = tags.index(DomainTag.MAESTRO) if DomainTag.MAESTRO in tags else len(tags)
    if DomainTag.DESED in tags[split:]:
        raise InvalidParameterError(
            "batch must be a DESED block followed by a MAESTRO block"
        )
    return split


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
    split = _domain_split(tags)
    swapped = np.r_[split:n, 0:split]
    if permutation is None:
        perm = rng.permutation(n)
    else:
        perm = np.asarray(permutation)
        if sorted(perm.tolist()) != list(range(n)):
            raise InvalidParameterError("permutation must reorder 0..N-1")
    order = swapped[perm]
    data = batch.data[order]
    data.flags.writeable = False
    return Batch._of_checked(data, [tags[i] for i in order])


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
    Domain tags are preserved from the input; shape is preserved. The input
    must be ordered as ``make_reference_batch`` needs, whatever the draw.
    """
    _domain_split(batch.tags)
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

    # One item at a time in float64, so the scratch is one map, not the batch.
    ref_moments = [bin_moments(r[None].astype(np.float64), (1, 3)) for r in ref.data]
    del ref  # the reference copy is not alive beside the output
    out = np.empty(batch.data.shape, dtype=np.float32)
    for i, (w, (mu_r, var_r)) in enumerate(zip(lam_vec, ref_moments)):
        x = batch.data[i : i + 1].astype(np.float64)
        # in place: x becomes x - mu_x, then sd_mix * (x - mu_x) / (sd_x + eps) + mu_mix
        mu_x, var_x, _ = centred_moments(x, (1, 3), out=x)  # (1, 1, F, 1)
        sd_x, sd_r = np.sqrt(var_x), np.sqrt(var_r)
        mu_mix = w * mu_x + (1.0 - w) * mu_r
        sd_mix = w * sd_x + (1.0 - w) * sd_r

        x *= sd_mix
        x /= sd_x + cfg.eps
        x += mu_mix
        out[i] = x[0]
    out.flags.writeable = False
    return Batch(out, batch.tags)
