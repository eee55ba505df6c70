"""Frequency-wise feature-statistics mixing for domain generalization.

A batch ordered as a DESED block followed by a MAESTRO block is paired with
itself in a reference order: the two domain blocks swapped, then shuffled.
Each instance is normalized per frequency bin by its own statistics and
re-denormalized with a convex mixture of its own and its reference
instance's statistics (taken once per instance and read by index, so no
reference batch is built); the mixture weight is a per-instance Beta draw.
Labels are never touched: only the feature values change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Batch, DomainTag, RandomSource, beta_sample
from .errors import ConfigInvalidError, InvalidParameterError
from .stats import bin_moments


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
) -> np.ndarray:
    """The reference order: swap the two domain blocks, then shuffle.

    The input must be ordered as a (possibly empty) DESED block followed by
    a (possibly empty) MAESTRO block. Item ``i``'s reference is item
    ``order[i]`` of the returned int array, a permutation of 0..N-1;
    ``permutation`` (N integers) overrides the random shuffle for testing.
    """
    n = len(batch)
    split = _domain_split(batch.tags)
    swapped = np.r_[split:n, 0:split]
    perm, _ = _pinned(n, permutation, None)
    return swapped[rng.permutation(n) if perm is None else perm]


def _pinned(n: int, permutation, lam) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``permutation`` and ``lam`` for N items as arrays, each None if not given.

    A permutation must reorder 0..N-1 as integers, and ``lam`` must be a
    scalar or N values in [0, 1]; anything else is an InvalidParameterError.
    """
    if permutation is not None:
        permutation = np.asarray(permutation)
        # a boolean array would pass the sort check (True == 1) and act as a mask
        if permutation.dtype.kind not in "iu" or sorted(permutation.tolist()) != list(range(n)):
            raise InvalidParameterError("permutation must reorder 0..N-1 as integers")
    if lam is not None:
        try:
            lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), (n,))
        except ValueError:
            raise InvalidParameterError(f"lambda must be a scalar or N={n} values") from None
        if not np.all((lam >= 0) & (lam <= 1)):  # NaN fails both
            raise InvalidParameterError("lambda values must be in [0,1]")
    return permutation, lam


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
    must be ordered as ``make_reference_batch`` needs, and the pinned values
    must be valid, whatever the draw.
    """
    _domain_split(batch.tags)
    n = len(batch)
    permutation, lam_vec = _pinned(n, permutation, lam)
    applied = rng.bernoulli(cfg.p)
    if not applied:
        return batch
    order = make_reference_batch(batch, rng, permutation=permutation)
    if lam_vec is None:
        lam_vec = beta_sample(rng, cfg.alpha, size=n)

    # One item at a time in float64, so the scratch is one map, not the batch;
    # item i's reference moments are moments[order[i]].
    moments = [bin_moments(item[None].astype(np.float64), (1, 3)) for item in batch.data]
    out = np.empty(batch.data.shape, dtype=np.float32)
    for i, w in enumerate(lam_vec):
        (mu_x, var_x), (mu_r, var_r) = moments[i], moments[order[i]]  # (1, 1, F, 1)
        # x - mu_x in float64, then sd_mix * (x - mu_x) / (sd_x + eps) + mu_mix in place
        x = np.subtract(batch.data[i : i + 1], mu_x)
        sd_x, sd_r = np.sqrt(var_x), np.sqrt(var_r)
        mu_mix = w * mu_x + (1.0 - w) * mu_r
        sd_mix = w * sd_x + (1.0 - w) * sd_r

        x *= sd_mix
        x /= sd_x + cfg.eps
        x += mu_mix
        out[i] = x[0]
    out.flags.writeable = False
    return Batch(out, batch.tags)
