"""Frequency-wise and channel-wise statistic vectors and their export."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sedtk.core import DomainTag, FeatureMap, make_batch
from sedtk.errors import InvalidParameterError
from sedtk.stats import bin_moments, chan_stats, export_stats, freq_stats


def _loop_freq_stats(data):
    """Brute-force oracle: explicit loops over (c, t) for each bin."""
    c, f, t = data.shape
    mu = np.zeros(f)
    sigma = np.zeros(f)
    for fi in range(f):
        vals = [float(data[ci, fi, ti]) for ci in range(c) for ti in range(t)]
        mu[fi] = sum(vals) / len(vals)
        sigma[fi] = (sum((v - mu[fi]) ** 2 for v in vals) / len(vals)) ** 0.5
    return mu, sigma


def _loop_chan_stats(data):
    c, f, t = data.shape
    mu = np.zeros(c)
    sigma = np.zeros(c)
    for ci in range(c):
        vals = [float(data[ci, fi, ti]) for fi in range(f) for ti in range(t)]
        mu[ci] = sum(vals) / len(vals)
        sigma[ci] = (sum((v - mu[ci]) ** 2 for v in vals) / len(vals)) ** 0.5
    return mu, sigma


def test_bin_moments_of_a_batch_equal_per_item_stats():
    rng = np.random.default_rng(5)
    data = rng.normal(3.0, 2.0, size=(3, 2, 4, 600)).astype(np.float32)
    mu, var = bin_moments(data, (1, 3))
    assert mu.shape == var.shape == (3, 1, 4, 1)
    assert mu.dtype == var.dtype == np.float64
    for i in range(3):
        x = data[i]
        st_ = freq_stats(FeatureMap(x))
        np.testing.assert_array_equal(st_.mu, x.mean(axis=(0, 2), dtype=np.float64))
        np.testing.assert_array_equal(st_.sigma, x.std(axis=(0, 2), dtype=np.float64))
        np.testing.assert_allclose(mu[i].ravel(), st_.mu, rtol=1e-12)
        np.testing.assert_allclose(np.sqrt(var[i]).ravel(), st_.sigma, rtol=1e-12)
        ch = chan_stats(FeatureMap(x))
        np.testing.assert_array_equal(ch.mu, x.mean(axis=(1, 2), dtype=np.float64))
        np.testing.assert_array_equal(ch.sigma, x.std(axis=(1, 2), dtype=np.float64))


class TestFreqStats:
    def test_constant_map(self):
        fm = FeatureMap(np.full((2, 5, 7), 3.0, np.float32))
        st_ = freq_stats(fm)
        np.testing.assert_allclose(st_.mu, 3.0)
        np.testing.assert_allclose(st_.sigma, 0.0)

    def test_two_point_moments(self):
        # (C=1, F=2, T=2): rows [0, 2] and [4, 4]
        fm = FeatureMap(np.array([[[0.0, 2.0], [4.0, 4.0]]], np.float32))
        st_ = freq_stats(fm)
        np.testing.assert_allclose(st_.mu, [1.0, 4.0])
        np.testing.assert_allclose(st_.sigma, [1.0, 0.0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        fm = FeatureMap(rng.normal(size=(2, 8, 16)).astype(np.float32))
        st_ = freq_stats(fm)
        mu, sigma = _loop_freq_stats(fm.data)
        np.testing.assert_allclose(st_.mu, mu, atol=1e-6)
        np.testing.assert_allclose(st_.sigma, sigma, atol=1e-6)

    def test_sigma_nonnegative(self):
        rng = np.random.default_rng(4)
        fm = FeatureMap(rng.normal(size=(3, 4, 5)).astype(np.float32))
        assert np.all(freq_stats(fm).sigma >= 0)


class TestChanStats:
    def test_constant_map(self):
        fm = FeatureMap(np.full((3, 4, 5), -1.5, np.float32))
        st_ = chan_stats(fm)
        np.testing.assert_allclose(st_.mu, -1.5)
        np.testing.assert_allclose(st_.sigma, 0.0)

    def test_two_channel_moments(self):
        # (C=2, F=1, T=2): channels [0, 2] and [6, 6]
        fm = FeatureMap(np.array([[[0.0, 2.0]], [[6.0, 6.0]]], np.float32))
        st_ = chan_stats(fm)
        np.testing.assert_allclose(st_.mu, [1.0, 6.0])
        np.testing.assert_allclose(st_.sigma, [1.0, 0.0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        fm = FeatureMap(rng.normal(size=(4, 3, 9)).astype(np.float32))
        st_ = chan_stats(fm)
        mu, sigma = _loop_chan_stats(fm.data)
        np.testing.assert_allclose(st_.mu, mu, atol=1e-6)
        np.testing.assert_allclose(st_.sigma, sigma, atol=1e-6)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_time_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(2, 4, 6)).astype(np.float32)
    perm = rng.permutation(6)
    a, b = FeatureMap(data), FeatureMap(data[:, :, perm])
    np.testing.assert_allclose(freq_stats(a).mu, freq_stats(b).mu, atol=1e-6)
    np.testing.assert_allclose(freq_stats(a).sigma, freq_stats(b).sigma, atol=1e-6)
    np.testing.assert_allclose(chan_stats(a).mu, chan_stats(b).mu, atol=1e-6)
    np.testing.assert_allclose(chan_stats(a).sigma, chan_stats(b).sigma, atol=1e-6)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(-10, 10).filter(lambda k: abs(k) > 1e-3),
)
def test_shift_moves_mu_only(seed, k):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(1, 5, 8)).astype(np.float32)
    base = freq_stats(FeatureMap(data))
    shifted = freq_stats(FeatureMap(data + np.float32(k)))
    np.testing.assert_allclose(shifted.mu, base.mu + k, atol=1e-5)
    np.testing.assert_allclose(shifted.sigma, base.sigma, atol=1e-5)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
@example(2394, 7.0)
@example(524287, 18.0)
def test_scale_scales_both(seed, s):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(1, 5, 8)).astype(np.float32)
    base = freq_stats(FeatureMap(data))
    scaled = freq_stats(FeatureMap(data * np.float32(s)))
    # Rounding data * s to float32 moves each value by at most eps/2 * s * |x|,
    # so a bin's mean or std moves by at most that much for the largest |x|;
    # a fixed atol of 1e-7 fails on a bin mean near 0.
    atol = np.finfo(np.float32).eps * s * np.abs(data).max()
    np.testing.assert_allclose(scaled.mu, base.mu * s, rtol=1e-5, atol=atol)
    np.testing.assert_allclose(scaled.sigma, base.sigma * s, rtol=1e-5, atol=atol)


class TestExport:
    def _batch(self, n=3, c=1, f=4, t=6):
        rng = np.random.default_rng(8)
        maps = [FeatureMap(rng.normal(size=(c, f, t)).astype(np.float32)) for _ in range(n)]
        tags = [DomainTag.DESED, DomainTag.MAESTRO, DomainTag.DESED][:n]
        return make_batch(maps, tags)

    def test_row_shape(self, tmp_path):
        batch = self._batch()
        out = tmp_path / "stats.csv"
        assert export_stats(batch, "frequency", out) == 3
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            fields = line.split(",")
            assert len(fields) == 1 + 2 * 4
            assert fields[0] in ("DESED", "MAESTRO")

    def test_channel_rows(self, tmp_path):
        batch = self._batch(c=3)
        out = tmp_path / "stats.csv"
        export_stats(batch, "channel", out)
        assert all(
            len(line.split(",")) == 1 + 2 * 3
            for line in out.read_text().splitlines()
        )

    def test_round_trip(self, tmp_path):
        batch = self._batch()
        out = tmp_path / "stats.csv"
        export_stats(batch, "frequency", out)
        for line, fmap, tag in zip(
            out.read_text().splitlines(), batch.maps, batch.tags
        ):
            fields = line.split(",")
            assert fields[0] == tag.name
            parsed = np.array([float(v) for v in fields[1:]])
            st_ = freq_stats(fmap)
            np.testing.assert_allclose(
                parsed, np.concatenate([st_.mu, st_.sigma]), atol=1e-6
            )

    def test_bad_which(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            export_stats(self._batch(), "channels", tmp_path / "x.csv")
