"""Frequency instance normalization, the residual blend, and its gradients."""

import numpy as np
import pytest

from sedtk.core import FeatureMap
from sedtk.errors import InvalidParameterError, ShapeMismatchError
from sedtk.norm import AdaResNormParams, ada_res_norm, ada_res_norm_grad, freq_in


def _random_map(shape=(2, 4, 6), seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMap(rng.normal(size=shape).astype(np.float32))


def _loss(x64, a, b, c, eps, upstream):
    """Float64 forward pass used by the finite-difference oracle."""
    mu = x64.mean(axis=(0, 2), keepdims=True)
    s = np.sqrt(x64.var(axis=(0, 2), keepdims=True) + eps)
    y = (x64 - mu) / s
    return float((upstream * ((a * x64 + (1 - a) * y) * b + c)).sum())


class TestFreqIn:
    def test_constant_map_zeroes(self):
        fm = FeatureMap(np.full((2, 3, 4), 7.5, np.float32))
        out = freq_in(fm)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_unit_variance_case(self):
        fm = FeatureMap(np.array([[[0.0, 2.0]]], np.float32))
        out = freq_in(fm, eps=1e-12)
        np.testing.assert_allclose(out.data, [[[-1.0, 1.0]]], atol=1e-5)

    def test_output_moments(self):
        fm = _random_map((2, 8, 16), seed=1)
        out = freq_in(fm).data.astype(np.float64)
        var_in = fm.data.astype(np.float64).var(axis=(0, 2))
        mean = out.mean(axis=(0, 2))
        std = out.std(axis=(0, 2))
        assert np.abs(mean).max() < 1e-5
        nondegenerate = var_in > 1e-3
        assert np.all(std[nondegenerate] <= 1.0 + 1e-7)
        assert np.all(std[nondegenerate] >= 1.0 - 1e-3)

    def test_shift_invariance(self):
        fm = _random_map(seed=2)
        for k in (-3.25, 0.5, 11.0):
            shifted = FeatureMap(fm.data + np.float32(k))
            np.testing.assert_allclose(
                freq_in(shifted).data, freq_in(fm).data, atol=1e-5
            )

    def test_shape_preserved(self):
        fm = _random_map((3, 5, 7))
        assert freq_in(fm).shape == (3, 5, 7)

    def test_bad_eps(self):
        with pytest.raises(InvalidParameterError):
            freq_in(_random_map(), eps=0.0)


class TestAdaResNorm:
    def test_identity_endpoint_exact(self):
        fm = _random_map(seed=3)
        out = ada_res_norm(fm, AdaResNormParams(a=1.0, b=1.0, c=0.0))
        np.testing.assert_array_equal(out.data, fm.data)

    def test_freq_in_endpoint_exact(self):
        fm = _random_map(seed=4)
        params = AdaResNormParams(a=0.0, b=1.0, c=0.0)
        np.testing.assert_array_equal(
            ada_res_norm(fm, params).data, freq_in(fm, params.eps).data
        )

    def test_hand_arithmetic(self):
        # (1,1,2) = [0, 2] with tiny eps: freq_in -> [-1, 1];
        # a=0.5, b=2, c=1: [2*(0.5*0 + 0.5*(-1)) + 1, 2*(0.5*2 + 0.5*1) + 1] = [0, 4]
        fm = FeatureMap(np.array([[[0.0, 2.0]]], np.float32))
        out = ada_res_norm(fm, AdaResNormParams(a=0.5, b=2.0, c=1.0, eps=1e-12))
        np.testing.assert_allclose(out.data, [[[0.0, 4.0]]], atol=1e-5)

    def test_affine_response(self):
        # ada(x, (a,b,c)) == b * ada(x, (a,1,0)) + c, up to float32 storage.
        fm = _random_map(seed=5)
        for a, b, c in [(0.3, 2.5, -1.0), (1.7, -0.5, 3.0), (-0.2, 0.1, 0.0)]:
            full = ada_res_norm(fm, AdaResNormParams(a=a, b=b, c=c))
            base = ada_res_norm(fm, AdaResNormParams(a=a, b=1.0, c=0.0))
            np.testing.assert_allclose(
                full.data, b * base.data.astype(np.float64) + c, atol=1e-5
            )

    def test_a_outside_unit_interval(self):
        # No clamping: the balance parameter is unconstrained.
        fm = _random_map(seed=6)
        x = fm.data.astype(np.float64)
        mu = x.mean(axis=(0, 2), keepdims=True)
        s = np.sqrt(x.var(axis=(0, 2), keepdims=True) + 1e-5)
        y = (x - mu) / s
        for a in (-0.5, 1.75):
            out = ada_res_norm(fm, AdaResNormParams(a=a, b=1.0, c=0.0))
            np.testing.assert_allclose(out.data, a * x + (1 - a) * y, atol=1e-5)

    def test_param_validation(self):
        with pytest.raises(InvalidParameterError):
            AdaResNormParams(a=np.inf, b=1.0, c=0.0)
        with pytest.raises(InvalidParameterError):
            AdaResNormParams(a=1.0, b=1.0, c=0.0, eps=-1e-5)


class TestGradients:
    def test_zero_upstream(self):
        fm = _random_map(seed=7)
        g = ada_res_norm_grad(fm, AdaResNormParams(0.5, 1.0, 0.0), np.zeros(fm.shape))
        assert g.d_a == g.d_b == g.d_c == 0.0
        np.testing.assert_array_equal(g.d_input, 0.0)

    def test_dc_is_upstream_sum(self):
        rng = np.random.default_rng(8)
        fm = _random_map(seed=8)
        up = rng.normal(size=fm.shape)
        g = ada_res_norm_grad(fm, AdaResNormParams(a=0.4, b=1.3, c=-2.0), up)
        assert g.d_c == pytest.approx(up.sum(), abs=0.0)

    def test_matches_finite_differences(self):
        # Central differences, h=1e-3, float64 forward; relative error with a
        # unit floor (see acceptance criterion 4 note in the ledger).
        rng = np.random.default_rng(9)
        h = 1e-3
        for trial in range(20):
            fm = _random_map((2, 4, 6), seed=100 + trial)
            up = rng.normal(size=fm.shape)
            a, b, c = rng.normal(size=3)
            params = AdaResNormParams(a=float(a), b=float(b), c=float(c))
            g = ada_res_norm_grad(fm, params, up)
            x = fm.data.astype(np.float64)

            def err(analytic, numeric):
                return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))

            fd = (
                _loss(x, a + h, b, c, params.eps, up)
                - _loss(x, a - h, b, c, params.eps, up)
            ) / (2 * h)
            assert err(g.d_a, fd) < 1e-4
            fd = (
                _loss(x, a, b + h, c, params.eps, up)
                - _loss(x, a, b - h, c, params.eps, up)
            ) / (2 * h)
            assert err(g.d_b, fd) < 1e-4
            fd = (
                _loss(x, a, b, c + h, params.eps, up)
                - _loss(x, a, b, c - h, params.eps, up)
            ) / (2 * h)
            assert err(g.d_c, fd) < 1e-4
            for idx in [(0, 0, 0), (1, 2, 3), (0, 3, 5), (1, 0, 4)]:
                xp = x.copy()
                xp[idx] += h
                xm = x.copy()
                xm[idx] -= h
                fd = (
                    _loss(xp, a, b, c, params.eps, up)
                    - _loss(xm, a, b, c, params.eps, up)
                ) / (2 * h)
                assert err(g.d_input[idx], fd) < 1e-4

    def test_shape_mismatch(self):
        fm = _random_map()
        with pytest.raises(ShapeMismatchError):
            ada_res_norm_grad(fm, AdaResNormParams(1.0, 1.0, 0.0), np.zeros((1, 1, 1)))


class TestParams:
    def test_identity_params(self):
        params = AdaResNormParams(a=1.0, b=1.0, c=0.0)
        fm = _random_map(seed=10)
        np.testing.assert_array_equal(ada_res_norm(fm, params).data, fm.data)

    def test_default_eps(self):
        assert AdaResNormParams(a=0.5, b=1.0, c=0.0).eps == 1e-5
