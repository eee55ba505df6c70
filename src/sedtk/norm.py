"""Frequency-wise instance normalization and its adaptive residual variant.

``freq_in`` whitens each frequency bin by the instance's own moments over
(channel, time). ``ada_res_norm`` blends the identity path with the
normalized path through a trainable balance ``a``, then applies scale ``b``
and shift ``c``:

    out = (a * x + (1 - a) * freq_in(x)) * b + c

Gradients are hand-written (no autodiff here); ``ada_res_norm_grad``
includes the dependence of the per-bin moments on the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FeatureMap
from .errors import InvalidParameterError, ShapeMismatchError
from .stats import bin_moments


@dataclass(frozen=True)
class AdaResNormParams:
    """Trainable balance/scale/shift scalars plus the variance guard."""

    a: float
    b: float
    c: float
    eps: float = 1e-5

    def __post_init__(self):
        if not self.eps > 0:
            raise InvalidParameterError(f"eps must be > 0, got {self.eps}")
        for name in ("a", "b", "c"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"parameter {name} must be finite")


@dataclass(frozen=True)
class NormGradients:
    """Gradients of sum(upstream * ada_res_norm(x)) w.r.t. a, b, c, x."""

    d_a: float
    d_b: float
    d_c: float
    d_input: np.ndarray


def _whiten(fmap: FeatureMap, eps: float):
    """The input x in float64, its per-bin whitened form y and the bin scale s."""
    x = fmap.data.astype(np.float64)
    mu, var = bin_moments(x, (0, 2))
    s = np.sqrt(var + eps)
    return x, (x - mu) / s, s


def freq_in(fmap: FeatureMap, eps: float = 1e-5) -> FeatureMap:
    """Whiten each frequency bin: (x - mu_f) / sqrt(var_f + eps)."""
    if not eps > 0:
        raise InvalidParameterError(f"eps must be > 0, got {eps}")
    return FeatureMap._own(_whiten(fmap, eps)[1].astype(np.float32))


def ada_res_norm(fmap: FeatureMap, params: AdaResNormParams) -> FeatureMap:
    """Blend identity and whitened paths, then scale and shift."""
    x, y, _ = _whiten(fmap, params.eps)
    z = (params.a * x + (1.0 - params.a) * y) * params.b + params.c
    return FeatureMap._own(z.astype(np.float32))


def ada_res_norm_grad(
    fmap: FeatureMap, params: AdaResNormParams, upstream: np.ndarray
) -> NormGradients:
    """Exact gradients of L = sum(upstream * ada_res_norm(x)).

    The input gradient accounts for the dependence of the per-bin mean and
    variance on x. For each frequency bin with m = C*T elements,
    y = (x - mu)/s and incoming per-bin cotangent g:

        dL/dx = a*b*u + (g - mean(g) - y * mean(g*y)) / s,  g = (1-a)*b*u

    where the means run over the bin's (channel, time) elements.
    """
    u = np.asarray(upstream, dtype=np.float64)
    if u.shape != fmap.shape:
        raise ShapeMismatchError(
            f"upstream shape {u.shape} != input shape {fmap.shape}"
        )
    a, b = params.a, params.b
    x, y, s = _whiten(fmap, params.eps)

    d_c = u.sum()
    d_b = (u * (a * x + (1.0 - a) * y)).sum()
    d_a = b * (u * (x - y)).sum()

    g = (1.0 - a) * b * u
    g_mean = g.mean(axis=(0, 2), keepdims=True)
    gy_mean = (g * y).mean(axis=(0, 2), keepdims=True)
    d_input = a * b * u + (g - g_mean - y * gy_mean) / s
    return NormGradients(
        d_a=float(d_a), d_b=float(d_b), d_c=float(d_c), d_input=d_input
    )
