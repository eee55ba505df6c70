"""Batch substrate, binary tensor format, and the seeded Beta sampler."""

import numpy as np
import pytest
from scipy import stats as sps

from sedtk.core import (
    Batch,
    DomainTag,
    FeatureMap,
    RandomSource,
    beta_sample,
    make_batch,
    read_fmt,
    write_fmt,
)
from sedtk.errors import (
    EmptyBatchError,
    InvalidParameterError,
    ParseError,
    ShapeMismatchError,
)
from sedtk.frontend import AudioClip, MelConfig, log_mel
from sedtk.norm import AdaResNormParams, ada_res_norm, freq_in

# First Beta(0.6, 0.6) draw for seed 42. Distributional correctness of the
# sampler is established by the KS test below against scipy's analytic CDF;
# this value pins stream determinism across refactors.
BETA_GOLDEN_SEED42 = 0.3038371039646981


def _maps(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [FeatureMap(rng.normal(size=s).astype(np.float32)) for s in shapes]


class TestBatch:
    def test_constructor_identity(self):
        maps = _maps([(1, 4, 8), (1, 4, 8)])
        batch = make_batch(maps, [DomainTag.DESED, DomainTag.MAESTRO])
        assert len(batch) == 2
        assert batch.shape == (1, 4, 8)
        assert batch.tags == (DomainTag.DESED, DomainTag.MAESTRO)
        np.testing.assert_array_equal(batch.maps[0].data, maps[0].data)

    def test_shape_mismatch(self):
        maps = _maps([(1, 4, 8), (1, 4, 9)])
        with pytest.raises(ShapeMismatchError):
            make_batch(maps, [DomainTag.DESED, DomainTag.DESED])

    def test_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            make_batch([], [])

    def test_tag_count_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            make_batch(_maps([(1, 2, 3)]), [DomainTag.DESED, DomainTag.DESED])

    def test_feature_map_rejects_nan(self):
        bad = np.ones((1, 2, 3), np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(InvalidParameterError):
            FeatureMap(bad)

    def test_feature_map_immutable(self):
        fm = _maps([(1, 2, 3)])[0]
        with pytest.raises(ValueError):
            fm.data[0, 0, 0] = 1.0

    def test_data_is_one_read_only_array(self):
        maps = _maps([(2, 3, 4)] * 3)
        batch = make_batch(maps, [DomainTag.DESED] * 3)
        assert batch.data.shape == (3, 2, 3, 4)
        assert batch.data.dtype == np.float32
        assert batch.data.flags.c_contiguous
        assert not batch.data.flags.writeable
        for fmap, original in zip(batch.maps, maps):
            assert isinstance(fmap, FeatureMap)
            assert np.shares_memory(fmap.data, batch.data)
            assert not fmap.data.flags.writeable
            np.testing.assert_array_equal(fmap.data, original.data)
        with pytest.raises(ValueError):
            batch.maps[1].data[0, 0, 0] = 1.0

    def test_writeable_input_is_copied(self):
        arr = np.zeros((2, 1, 2, 3), np.float32)
        batch = Batch(arr, [DomainTag.DESED, DomainTag.MAESTRO])
        arr[0, 0, 0, 0] = 5.0
        assert batch.data[0, 0, 0, 0] == 0.0
        assert arr.flags.writeable

    def test_feature_map_copies_writeable_input(self):
        arr = np.zeros((1, 2, 3), np.float32)
        fmap = FeatureMap(arr)
        assert not np.shares_memory(fmap.data, arr)
        arr[0, 0, 0] = 5.0
        assert fmap.data[0, 0, 0] == 0.0
        assert arr.flags.writeable
        assert not fmap.data.flags.writeable

    def test_feature_map_copies_read_only_view(self):
        base = np.zeros((1, 2, 3), np.float32)
        view = base.view()
        view.flags.writeable = False
        fmap = FeatureMap(view)
        assert not np.shares_memory(fmap.data, base)
        base[0, 0, 0] = 5.0
        assert fmap.data[0, 0, 0] == 0.0

    def test_own_takes_array_without_copy_and_checks_it(self):
        arr = np.zeros((1, 2, 3), np.float32)
        fmap = FeatureMap._own(arr)
        assert fmap.data is arr
        assert not arr.flags.writeable
        bad = np.zeros((1, 2, 3), np.float32)
        bad[0, 1, 2] = np.nan
        with pytest.raises(InvalidParameterError):
            FeatureMap._own(bad)
        with pytest.raises(ShapeMismatchError):
            FeatureMap._own(np.zeros((2, 3), np.float32))

    def test_producers_hand_over_their_output_without_a_copy(self, monkeypatch):
        given = []
        check = FeatureMap.__post_init__

        def spy(self, **kwargs):
            given.append(self.data)
            check(self, **kwargs)

        monkeypatch.setattr(FeatureMap, "__post_init__", spy)
        clip = AudioClip(np.sin(np.arange(4000) / 7.0).astype(np.float32), 16000)
        fmap = log_mel(clip, MelConfig(n_mels=16, pad_to_seconds=0.0))
        outputs = [fmap, freq_in(fmap), ada_res_norm(fmap, AdaResNormParams(0.5, 1.0, 0.0))]
        assert len(given) == 3
        for out, arr in zip(outputs, given):
            assert out.data is arr
            assert not arr.flags.writeable

    def test_batch_rejects_nan_and_bad_rank(self):
        bad = np.zeros((1, 1, 2, 3), np.float32)
        bad[0, 0, 1, 2] = np.inf
        with pytest.raises(InvalidParameterError):
            Batch(bad, [DomainTag.DESED])
        with pytest.raises(ShapeMismatchError):
            Batch(np.zeros((1, 2, 3), np.float32), [DomainTag.DESED])

    def test_maps_are_views_not_rebuilt(self, monkeypatch, tmp_path):
        path = tmp_path / "b.fmt"
        write_fmt(make_batch(_maps([(1, 2, 3)] * 2), [DomainTag.DESED] * 2), path)

        def rebuilt(self):
            raise AssertionError("FeatureMap was rebuilt and re-checked")

        monkeypatch.setattr(FeatureMap, "__post_init__", rebuilt)
        batch = read_fmt(path)
        assert [m.shape for m in batch.maps] == [(1, 2, 3)] * 2
        assert batch.maps is batch.maps


class TestRandomSource:
    def test_determinism(self):
        a = RandomSource(123)
        b = RandomSource(123)
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]
        np.testing.assert_array_equal(a.permutation(10), b.permutation(10))

    def test_different_seeds_differ(self):
        assert RandomSource(1).uniform() != RandomSource(2).uniform()

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_stream_is_philox_of_the_seed_sequence(self, seed):
        # Every stream (the golden Beta draw included) rests on this construction.
        ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        rng = RandomSource(seed)
        np.testing.assert_array_equal(rng.uniform(4), ref.random(4))
        assert rng.uniform() == float(ref.random())
        np.testing.assert_array_equal(rng.gamma(0.6, size=3), ref.standard_gamma(0.6, size=3))
        np.testing.assert_array_equal(rng.permutation(7), ref.permutation(7))

    def test_bernoulli_extremes(self):
        rng = RandomSource(0)
        assert not rng.bernoulli(0.0)
        assert rng.bernoulli(1.0)

    def test_seed_range(self):
        with pytest.raises(InvalidParameterError):
            RandomSource(-1)
        with pytest.raises(InvalidParameterError):
            RandomSource(2**64)


class TestBetaSample:
    def test_support(self):
        rng = RandomSource(11)
        draws = beta_sample(rng, 0.6, size=1000)
        assert np.all(draws >= 0) and np.all(draws <= 1)

    def test_symmetry_mean(self):
        rng = RandomSource(7)
        draws = beta_sample(rng, 0.6, size=100_000)
        assert abs(draws.mean() - 0.5) < 0.005

    def test_golden_first_draw(self):
        rng = RandomSource(42)
        assert beta_sample(rng, 0.6) == pytest.approx(BETA_GOLDEN_SEED42, abs=0.0)

    def test_ks_against_analytic_cdf(self):
        # Independent oracle: scipy's Beta(0.6, 0.6) CDF.
        rng = RandomSource(7)
        draws = beta_sample(rng, 0.6, size=100_000)
        ks = sps.kstest(draws, lambda q: sps.beta.cdf(q, 0.6, 0.6))
        assert ks.statistic < 0.01

    def test_other_alphas_ks(self):
        for alpha in (0.3, 1.0, 2.5):
            rng = RandomSource(31)
            draws = beta_sample(rng, alpha, size=20_000)
            ks = sps.kstest(draws, lambda q, a=alpha: sps.beta.cdf(q, a, a))
            assert ks.statistic < 0.02, f"alpha={alpha}"

    def test_large_alpha_draws_once(self):
        # Johnk's acceptance rate collapses as alpha grows (alpha=30 never
        # returned); the gamma ratio draws one batch. The counter turns a
        # regression into a failure instead of a hang.
        rng = RandomSource(31)
        calls = []
        for name in ("uniform", "gamma"):
            def counted(*args, _name=name, _draw=getattr(rng, name), **kwargs):
                calls.append(_name)
                assert len(calls) <= 10, "beta_sample keeps redrawing"
                return _draw(*args, **kwargs)
            setattr(rng, name, counted)
        draws = beta_sample(rng, 30.0, size=20_000)
        assert calls == ["gamma"]
        ks = sps.kstest(draws, lambda q: sps.beta.cdf(q, 30.0, 30.0))
        assert ks.statistic < 0.02
        assert isinstance(beta_sample(rng, 30.0), float)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameterError):
            beta_sample(RandomSource(0), 0.0)
        with pytest.raises(InvalidParameterError):
            beta_sample(RandomSource(0), -1.0)
        with pytest.raises(InvalidParameterError):
            beta_sample(RandomSource(0), float("inf"))


class TestFmtFile:
    def test_round_trip(self, tmp_path):
        batch = make_batch(
            _maps([(2, 4, 6)] * 3),
            [DomainTag.DESED, DomainTag.MAESTRO, DomainTag.DESED],
        )
        path = tmp_path / "b.fmt"
        write_fmt(batch, path)
        back = read_fmt(path)
        assert back.tags == batch.tags
        for a, b in zip(back.maps, batch.maps):
            np.testing.assert_array_equal(a.data, b.data)

    def test_write_is_deterministic(self, tmp_path):
        batch = make_batch(_maps([(1, 3, 5)] * 2), [DomainTag.DESED] * 2)
        p1, p2 = tmp_path / "a.fmt", tmp_path / "b.fmt"
        write_fmt(batch, p1)
        write_fmt(batch, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_layout(self, tmp_path):
        batch = make_batch(_maps([(1, 2, 2)]), [DomainTag.MAESTRO])
        path = tmp_path / "b.fmt"
        write_fmt(batch, path)
        raw = path.read_bytes()
        assert raw[:4] == b"FMT1"
        assert np.frombuffer(raw[4:20], dtype="<u4").tolist() == [1, 1, 2, 2]
        assert raw[-1] == 1  # MAESTRO tag byte
        assert len(raw) == 20 + 4 * 4 + 1

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.fmt"
        path.write_bytes(b"JUNKXXXXXXXXXXXXXXXXXXXXXX")
        with pytest.raises(ParseError):
            read_fmt(path)

    def test_truncated(self, tmp_path):
        batch = make_batch(_maps([(1, 2, 2)]), [DomainTag.DESED])
        path = tmp_path / "b.fmt"
        write_fmt(batch, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ParseError):
            read_fmt(path)

    def test_read_does_not_copy_the_payload(self, tmp_path):
        path = tmp_path / "b.fmt"
        write_fmt(make_batch(_maps([(1, 2, 3)] * 2), [DomainTag.DESED] * 2), path)
        back = read_fmt(path)
        assert not back.data.flags.owndata
        assert not back.data.flags.writeable

    def test_nan_payload(self, tmp_path):
        batch = make_batch(_maps([(1, 2, 2)]), [DomainTag.DESED])
        path = tmp_path / "b.fmt"
        write_fmt(batch, path)
        raw = bytearray(path.read_bytes())
        raw[24:28] = np.array([np.nan], "<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="NaN or Inf"):
            read_fmt(path)

    def test_bad_tag_byte(self, tmp_path):
        batch = make_batch(_maps([(1, 2, 2)]), [DomainTag.DESED])
        path = tmp_path / "b.fmt"
        write_fmt(batch, path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            read_fmt(path)
