"""Frequency-wise and channel-wise statistic vectors and their export."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sedtk.core import DomainTag, FeatureMap, make_batch
from sedtk.errors import InvalidParameterError
from sedtk import stats
from sedtk.stats import FreqStats, bin_moments, centred_moments, export_stats, freq_stats


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
        ch_mu, ch_var = bin_moments(x, (1, 2))
        np.testing.assert_array_equal(ch_mu.ravel(), x.mean(axis=(1, 2), dtype=np.float64))
        np.testing.assert_array_equal(np.sqrt(ch_var).ravel(), x.std(axis=(1, 2), dtype=np.float64))


# Values that stress a float64 sum of float32 or float64 data: signed zeros,
# subnormals and wide magnitudes, mixed with noise of a drawn scale and offset.
_MOMENT_VALUES = np.array([0.0, -0.0, 1e-45, -1e-45, 2.0**-60, 1.0, -1.0, 2.0**100, -(2.0**100), 3.4e38])


def _wide_float32(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1, 1, shape) * 2.0 ** rng.integers(-40, 40, shape)).astype(np.float32)


@st.composite
def _moment_case(draw):
    """An array, float32 or float64, and one of the axis pairs the library reduces over."""
    axis = draw(st.sampled_from([(0, 2), (1, 3), (1, 2)]))
    ndim = 4 if axis == (1, 3) else 3
    shape = tuple(draw(st.integers(1, 4 if i < ndim - 1 else 700)) for i in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale, offset = 10.0 ** draw(st.integers(-40, 30)), draw(st.sampled_from([0.0, 1e4, -3.0]))
    x = rng.normal(offset, scale, size=shape)
    special = rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    x[special] = rng.choice(_MOMENT_VALUES, size=int(special.sum()))
    return x.astype(draw(st.sampled_from([np.float32, np.float64]))), axis


@settings(deadline=None, max_examples=400)
@given(_moment_case())
@example((np.full((1, 128, 626), 3.25, np.float32), (0, 2)))
@example((np.linspace(-5, 5, 2 * 3 * 5 * 700).reshape(2, 3, 5, 700), (1, 3)))
# Rows past numpy's 8192-value cast buffers: a float32 sum in float64 then
# differs from the sum of a float64 copy, and the helper must take the former.
@example((_wide_float32((1, 3, 20000), 0), (0, 2)))
@example((_wide_float32((1, 1, 3, 30000), 1), (1, 3)))
def test_centred_moments_equal_mean_and_var(case):
    # The forms they replace: x.mean and x.var in float64, and x minus that mean.
    x, axis = case
    with np.errstate(over="ignore", invalid="ignore"):
        mu, var, centred = centred_moments(x, axis)
        want_mu = x.mean(axis=axis, dtype=np.float64, keepdims=True)
        want_var = x.var(axis=axis, dtype=np.float64, keepdims=True)
        want_centred = x - want_mu
        assert mu.tobytes() == want_mu.tobytes() and mu.shape == want_mu.shape
        assert var.tobytes() == want_var.tobytes() and var.shape == want_var.shape
        assert centred.dtype == np.float64 and centred.tobytes() == want_centred.tobytes()
        assert [m.tobytes() for m in bin_moments(x, axis)] == [mu.tobytes(), var.tobytes()]
        x64 = x.astype(np.float64)
        mu_out, var_out, centred_out = centred_moments(x64, axis, out=x64)
        assert centred_out is x64
        assert x64.tobytes() == (x.astype(np.float64) - mu_out).tobytes()
        assert var_out.tobytes() == x.astype(np.float64).var(axis=axis, keepdims=True).tobytes()


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


def _channel_row(fm, tmp_path):
    """The mu and sigma of ``fm``'s channel row, as ``export_stats`` writes it."""
    out = tmp_path / "stats.csv"
    export_stats(make_batch([fm], [DomainTag.DESED]), "channel", out)
    tag, *values = out.read_text().splitlines()[0].split(",")
    assert tag == "DESED"
    return np.split(np.array([float(v) for v in values]), 2)


class TestChanStats:
    def test_constant_map(self, tmp_path):
        mu, sigma = _channel_row(FeatureMap(np.full((3, 4, 5), -1.5, np.float32)), tmp_path)
        np.testing.assert_allclose(mu, -1.5)
        np.testing.assert_allclose(sigma, 0.0)

    def test_two_channel_moments(self, tmp_path):
        # (C=2, F=1, T=2): channels [0, 2] and [6, 6]
        fm = FeatureMap(np.array([[[0.0, 2.0]], [[6.0, 6.0]]], np.float32))
        mu, sigma = _channel_row(fm, tmp_path)
        np.testing.assert_allclose(mu, [1.0, 6.0])
        np.testing.assert_allclose(sigma, [1.0, 0.0])

    def test_matches_loop_oracle(self, tmp_path):
        rng = np.random.default_rng(5)
        fm = FeatureMap(rng.normal(size=(4, 3, 9)).astype(np.float32))
        mu, sigma = _channel_row(fm, tmp_path)
        want_mu, want_sigma = _loop_chan_stats(fm.data)
        np.testing.assert_allclose(mu, want_mu, atol=1e-6)
        np.testing.assert_allclose(sigma, want_sigma, atol=1e-6)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_time_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(2, 4, 6)).astype(np.float32)
    perm = rng.permutation(6)
    a, b = FeatureMap(data), FeatureMap(data[:, :, perm])
    np.testing.assert_allclose(freq_stats(a).mu, freq_stats(b).mu, atol=1e-6)
    np.testing.assert_allclose(freq_stats(a).sigma, freq_stats(b).sigma, atol=1e-6)
    for ma, mb in zip(bin_moments(a.data, (1, 2)), bin_moments(b.data, (1, 2))):
        np.testing.assert_allclose(ma, mb, atol=1e-6)


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


def _f_string_rows(tags, vectors):
    """The writer export_stats replaced: one f-string per value, joined by commas."""
    return "".join(
        tag.name + "," + ",".join(f"{v:.9g}" for v in np.concatenate([st_.mu, st_.sigma])) + "\n"
        for tag, st_ in zip(tags, vectors)
    )


_EXPORT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 3.4e38, -3.4e38, 5e-324, 1.0, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4), st.integers(1, 6), st.data())
def test_export_rows_spell_values_as_the_f_string_join(tmp_path_factory, n, f, data):
    tags = [DomainTag(t) for t in data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))]
    vec = st.lists(_EXPORT_VALUES, min_size=f, max_size=f).map(np.array)
    vectors = [FreqStats(mu=data.draw(vec), sigma=np.abs(data.draw(vec))) for _ in range(n)]
    batch = make_batch([FeatureMap(np.zeros((1, f, 2), np.float32))] * n, tags)
    out = tmp_path_factory.mktemp("stats") / "stats.csv"
    drawn = iter(vectors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "freq_stats", lambda fmap: next(drawn))
        export_stats(batch, "frequency", out)
    assert out.read_bytes() == _f_string_rows(tags, vectors).encode()


@pytest.mark.parametrize("which", ["frequency", "channel"])
def test_export_rows_of_a_batch_equal_the_f_string_join(tmp_path, which):
    rng = np.random.default_rng(11)
    data = rng.normal(size=(5, 2, 6, 30)).astype(np.float32) * 10.0 ** rng.integers(-30, 30, (5, 1, 6, 1))
    data[1] = 0.0  # constant bins: sigma 0
    data[2, :, 3] = -3.4e38
    data[3, :, :2] = 1e-45
    tags = [DomainTag.DESED] * 3 + [DomainTag.MAESTRO] * 2
    batch = make_batch([FeatureMap(d) for d in data], tags)
    export_stats(batch, which, tmp_path / "stats.csv")
    # numpy's float64 mean and std per channel, which bin_moments gives bit for bit
    def rule(m):
        return freq_stats(m) if which == "frequency" else FreqStats(
            m.data.mean(axis=(1, 2), dtype=np.float64), m.data.std(axis=(1, 2), dtype=np.float64)
        )
    want = _f_string_rows(batch.tags, [rule(m) for m in batch.maps])
    assert (tmp_path / "stats.csv").read_bytes() == want.encode()
