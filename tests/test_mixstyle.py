"""Reference-batch construction and frequency-wise statistics mixing."""

import numpy as np
import pytest

from sedtk.core import DomainTag, FeatureMap, RandomSource, make_batch
from sedtk.errors import ConfigInvalidError, InvalidParameterError, ShapeMismatchError
from sedtk.mixstyle import (
    MixStyleConfig,
    freq_mixstyle,
    make_reference_batch,
    mix_statistics,
)
from sedtk.stats import FreqStats, freq_stats


def _batch(n_desed, n_maestro, shape=(1, 6, 10), seed=0):
    rng = np.random.default_rng(seed)
    n = n_desed + n_maestro
    maps = [FeatureMap(rng.normal(size=shape).astype(np.float32)) for _ in range(n)]
    tags = [DomainTag.DESED] * n_desed + [DomainTag.MAESTRO] * n_maestro
    return make_batch(maps, tags)


class TestReferenceBatch:
    def test_swap_with_identity_shuffle(self):
        batch = _batch(2, 2)
        ref = make_reference_batch(batch, RandomSource(0), permutation=range(4))
        # [d1, d2, m1, m2] -> [m1, m2, d1, d2]
        expected = [batch.maps[i].data for i in (2, 3, 0, 1)]
        for got, want in zip(ref.maps, expected):
            np.testing.assert_array_equal(got.data, want)
        assert ref.tags == (
            DomainTag.MAESTRO, DomainTag.MAESTRO, DomainTag.DESED, DomainTag.DESED,
        )

    def test_all_desed_is_permutation(self):
        batch = _batch(4, 0)
        ref = make_reference_batch(batch, RandomSource(1))
        ids_in = sorted(m.data.tobytes() for m in batch.maps)
        ids_out = sorted(m.data.tobytes() for m in ref.maps)
        assert ids_in == ids_out

    def test_multiset_preserved_over_random_batches(self):
        # Permutation-check oracle over 100 random batches.
        rng = np.random.default_rng(7)
        for trial in range(100):
            n_d = int(rng.integers(0, 4))
            n_m = int(rng.integers(0 if n_d else 1, 4))
            batch = _batch(n_d, n_m, shape=(1, 3, 4), seed=trial)
            ref = make_reference_batch(batch, RandomSource(trial))
            got = sorted(
                (m.data.tobytes(), int(t)) for m, t in zip(ref.maps, ref.tags)
            )
            want = sorted(
                (m.data.tobytes(), int(t)) for m, t in zip(batch.maps, batch.tags)
            )
            assert got == want

    def test_rejects_interleaved_domains(self):
        batch = _batch(1, 1)
        mixed = make_batch(
            [batch.maps[1], batch.maps[0]],
            [DomainTag.MAESTRO, DomainTag.DESED],
        )
        with pytest.raises(InvalidParameterError):
            make_reference_batch(mixed, RandomSource(0))

    def test_bad_permutation(self):
        with pytest.raises(InvalidParameterError):
            make_reference_batch(_batch(1, 1), RandomSource(0), permutation=[0, 0])


class TestMixStatistics:
    def test_lambda_one_endpoint(self):
        x = FreqStats(np.array([1.0, 2.0]), np.array([0.5, 0.6]))
        r = FreqStats(np.array([9.0, 9.0]), np.array([9.0, 9.0]))
        mixed = mix_statistics(x, r, 1.0)
        np.testing.assert_array_equal(mixed.mu, x.mu)
        np.testing.assert_array_equal(mixed.sigma, x.sigma)

    def test_lambda_zero_endpoint(self):
        x = FreqStats(np.array([1.0, 2.0]), np.array([0.5, 0.6]))
        r = FreqStats(np.array([9.0, 8.0]), np.array([7.0, 6.0]))
        mixed = mix_statistics(x, r, 0.0)
        np.testing.assert_array_equal(mixed.mu, r.mu)
        np.testing.assert_array_equal(mixed.sigma, r.sigma)

    def test_quarter_mix(self):
        x = FreqStats(np.array([0.0, 4.0]), np.array([0.0, 0.0]))
        r = FreqStats(np.array([4.0, 0.0]), np.array([0.0, 0.0]))
        mixed = mix_statistics(x, r, 0.25)
        np.testing.assert_allclose(mixed.mu, [3.0, 1.0])

    def test_shape_mismatch(self):
        x = FreqStats(np.zeros(3), np.zeros(3))
        r = FreqStats(np.zeros(4), np.zeros(4))
        with pytest.raises(ShapeMismatchError):
            mix_statistics(x, r, 0.5)

    def test_lambda_out_of_range(self):
        x = FreqStats(np.zeros(3), np.zeros(3))
        with pytest.raises(InvalidParameterError):
            mix_statistics(x, x, 1.5)


class TestFreqMixstyle:
    def test_lambda_one_is_identity(self):
        batch = _batch(2, 2)
        out = freq_mixstyle(batch, MixStyleConfig(p=1.0), RandomSource(3), lam=1.0)
        for a, b in zip(out.maps, batch.maps):
            assert np.abs(a.data - b.data).max() < 1e-4
        assert out.tags == batch.tags

    def test_lambda_zero_takes_reference_stats(self):
        # Direct recomputation oracle at the lam=0 endpoint.
        batch = _batch(2, 2, seed=5)
        cfg = MixStyleConfig(p=1.0)
        perm = [3, 1, 0, 2]
        out = freq_mixstyle(batch, cfg, RandomSource(0), lam=0.0, permutation=perm)
        swapped = [2, 3, 0, 1]
        ref_idx = [swapped[p] for p in perm]
        for i in range(4):
            own = freq_stats(batch.maps[i])
            ref = freq_stats(batch.maps[ref_idx[i]])
            got = freq_stats(out.maps[i])
            np.testing.assert_allclose(got.mu, ref.mu, atol=1e-4)
            np.testing.assert_allclose(
                got.sigma, ref.sigma * own.sigma / (own.sigma + cfg.eps), atol=1e-4
            )

    def test_statistic_contract_random_lambda(self):
        batch = _batch(3, 3, shape=(2, 5, 12), seed=9)
        cfg = MixStyleConfig(p=1.0)
        lam = np.array([0.15, 0.4, 0.6, 0.8, 0.95, 0.5])
        perm = [5, 0, 3, 1, 4, 2]
        out = freq_mixstyle(batch, cfg, RandomSource(2), lam=lam, permutation=perm)
        swapped = [3, 4, 5, 0, 1, 2]
        ref_idx = [swapped[p] for p in perm]
        for i in range(6):
            own = freq_stats(batch.maps[i])
            ref = freq_stats(batch.maps[ref_idx[i]])
            mu_mix = lam[i] * own.mu + (1 - lam[i]) * ref.mu
            sd_mix = lam[i] * own.sigma + (1 - lam[i]) * ref.sigma
            got = freq_stats(out.maps[i])
            np.testing.assert_allclose(got.mu, mu_mix, atol=1e-4)
            np.testing.assert_allclose(
                got.sigma, sd_mix * own.sigma / (own.sigma + cfg.eps), atol=1e-4
            )

    def test_p_zero_returns_input_bitwise(self):
        batch = _batch(1, 1)
        out = freq_mixstyle(batch, MixStyleConfig(p=0.0), RandomSource(0))
        assert out is batch

    def test_shape_and_tags_preserved(self):
        batch = _batch(2, 1, shape=(3, 4, 5))
        out = freq_mixstyle(batch, MixStyleConfig(p=1.0), RandomSource(8))
        assert out.shape == batch.shape
        assert len(out) == len(batch)
        assert out.tags == batch.tags

    def test_gate_frequency(self):
        batch = _batch(1, 1, shape=(1, 2, 3))
        cfg = MixStyleConfig(p=0.5)
        rng = RandomSource(2024)
        applied = sum(
            freq_mixstyle(batch, cfg, rng) is not batch for _ in range(10_000)
        )
        assert 0.48 <= applied / 10_000 <= 0.52

    def test_no_cross_instance_leakage_at_lambda_one(self):
        batch_a = _batch(2, 2, seed=1)
        # Same first instance, totally different others.
        other = _batch(2, 2, seed=99)
        batch_b = make_batch(
            [batch_a.maps[0], *other.maps[1:]], list(batch_a.tags)
        )
        cfg = MixStyleConfig(p=1.0)
        out_a = freq_mixstyle(batch_a, cfg, RandomSource(5), lam=1.0)
        out_b = freq_mixstyle(batch_b, cfg, RandomSource(5), lam=1.0)
        np.testing.assert_array_equal(out_a.maps[0].data, out_b.maps[0].data)

    def test_reproducible_bitwise(self):
        batch = _batch(2, 2, seed=12)
        cfg = MixStyleConfig(p=1.0)
        out1 = freq_mixstyle(batch, cfg, RandomSource(77))
        out2 = freq_mixstyle(batch, cfg, RandomSource(77))
        for a, b in zip(out1.maps, out2.maps):
            np.testing.assert_array_equal(a.data, b.data)

    def test_config_validation(self):
        with pytest.raises(ConfigInvalidError):
            MixStyleConfig(p=1.5)
        with pytest.raises(ConfigInvalidError):
            MixStyleConfig(alpha=0.0)
        with pytest.raises(ConfigInvalidError):
            MixStyleConfig(alpha=float("inf"))
        with pytest.raises(ConfigInvalidError):
            MixStyleConfig(eps=0.0)
