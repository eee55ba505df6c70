"""Reference order construction and frequency-wise statistics mixing."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from sedtk.errors import ConfigInvalidError, InvalidParameterError
from sedtk.mixstyle import MixStyleConfig, freq_mixstyle, make_reference_batch
from sedtk.stats import freq_stats


def _batch(n_desed, n_maestro, shape=(1, 6, 10), seed=0):
    rng = np.random.default_rng(seed)
    n = n_desed + n_maestro
    maps = [FeatureMap(rng.normal(size=shape).astype(np.float32)) for _ in range(n)]
    tags = [DomainTag.DESED] * n_desed + [DomainTag.MAESTRO] * n_maestro
    return make_batch(maps, tags)


class TestReferenceBatch:
    def test_swap_with_identity_shuffle(self):
        batch = _batch(2, 2)
        order = make_reference_batch(batch, RandomSource(0), permutation=range(4))
        # [d1, d2, m1, m2] -> [m1, m2, d1, d2]
        assert order.dtype.kind == "i"
        assert order.tolist() == [2, 3, 0, 1]
        assert [batch.tags[i] for i in order] == [
            DomainTag.MAESTRO, DomainTag.MAESTRO, DomainTag.DESED, DomainTag.DESED,
        ]

    def test_all_desed_is_permutation(self):
        order = make_reference_batch(_batch(4, 0), RandomSource(1))
        assert sorted(order.tolist()) == [0, 1, 2, 3]

    def test_multiset_preserved_over_random_batches(self):
        # Permutation-check oracle over 100 random batches.
        rng = np.random.default_rng(7)
        for trial in range(100):
            n_d = int(rng.integers(0, 4))
            n_m = int(rng.integers(0 if n_d else 1, 4))
            batch = _batch(n_d, n_m, shape=(1, 3, 4), seed=trial)
            order = make_reference_batch(batch, RandomSource(trial))
            assert order.dtype.kind == "i"
            assert sorted(order.tolist()) == list(range(n_d + n_m))

    def test_rejects_interleaved_domains(self):
        batch = _batch(1, 1)
        mixed = make_batch(
            [batch.maps[1], batch.maps[0]],
            [DomainTag.MAESTRO, DomainTag.DESED],
        )
        with pytest.raises(InvalidParameterError):
            make_reference_batch(mixed, RandomSource(0))
        for p in (0.0, 1.0):  # refused whether or not the draw mixes
            with pytest.raises(InvalidParameterError):
                freq_mixstyle(mixed, MixStyleConfig(p=p), RandomSource(0))

    def test_bad_permutation(self):
        with pytest.raises(InvalidParameterError):
            make_reference_batch(_batch(1, 1), RandomSource(0), permutation=[0, 0])

    @pytest.mark.parametrize("perm", [[True, False], [1.0, 0.0]])
    def test_non_integer_permutation_refused(self, perm):
        # [True, False] sorts equal to [0, 1] but would act as a 1-item mask
        batch = _batch(1, 1)
        with pytest.raises(InvalidParameterError, match="permutation"):
            make_reference_batch(batch, RandomSource(0), permutation=perm)
        for p in (0.0, 1.0):  # refused whether or not the draw mixes
            with pytest.raises(InvalidParameterError, match="permutation"):
                freq_mixstyle(batch, MixStyleConfig(p=p), RandomSource(0), permutation=perm)


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

    def test_dcase_batch_peak_memory(self):
        # 64 x (1, 128, 626), the batch the DG recipe mixes
        data = np.random.default_rng(0).normal(-20, 5, (64, 1, 128, 626)).astype(np.float32)
        data.flags.writeable = False
        batch = Batch(data, [DomainTag.DESED] * 32 + [DomainTag.MAESTRO] * 32)
        tracemalloc.start()
        try:
            freq_mixstyle(batch, MixStyleConfig(p=1.0), RandomSource(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and one item's scratch; no reference copy is made
        assert peak < 1.5 * data.nbytes, f"peak {peak / data.nbytes:.2f}x the batch's bytes"

    @pytest.mark.parametrize("p", [0.0, 1.0])  # refused whether or not the draw mixes
    @pytest.mark.parametrize("lam", [float("nan"), [0.5, float("nan")], -0.1, [0.5, 1.5]])
    def test_lambda_outside_unit_interval_refused(self, lam, p):
        with pytest.raises(InvalidParameterError, match=r"lambda values must be in \[0,1\]"):
            freq_mixstyle(_batch(1, 1), MixStyleConfig(p=p), RandomSource(0), lam=lam)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("lam", [[0.1, 0.2, 0.3], [[0.5, 0.5]]])
    def test_lambda_of_wrong_length_refused(self, lam, p):
        with pytest.raises(InvalidParameterError, match="N=2"):
            freq_mixstyle(_batch(1, 1), MixStyleConfig(p=p), RandomSource(0), lam=lam)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_nan_lambda_with_boolean_permutation_refused(self, p):
        batch = Batch(np.ones((2, 1, 4, 5), np.float32), [DomainTag.DESED, DomainTag.MAESTRO])
        with pytest.raises(InvalidParameterError):
            freq_mixstyle(batch, MixStyleConfig(p=p), RandomSource(0),
                          lam=float("nan"), permutation=[True, False])

    def test_pinned_values_are_checked_without_a_draw(self):
        # p = 0 returns the batch after its one Bernoulli draw, pinned values or not
        batch, rng, fresh = _batch(1, 1), RandomSource(7), RandomSource(7)
        out = freq_mixstyle(batch, MixStyleConfig(p=0.0), rng, lam=[0.2, 0.9], permutation=[1, 0])
        assert out is batch
        fresh.bernoulli(0.0)
        assert rng.uniform() == fresh.uniform()

    def test_config_validation(self):
        with pytest.raises(ConfigInvalidError):
            MixStyleConfig(p=1.5)
        with pytest.raises(ConfigInvalidError):
            MixStyleConfig(alpha=0.0)
        with pytest.raises(ConfigInvalidError):
            MixStyleConfig(alpha=float("inf"))
        with pytest.raises(ConfigInvalidError):
            MixStyleConfig(eps=0.0)


# The per-map implementation that the array path replaced, kept as the
# reference: every item a separate FeatureMap, stacked and rebuilt per call.
def _stack(maps):
    return np.stack([m.data for m in maps]).astype(np.float32)


def _make_reference_batch_per_map(batch, rng, permutation=None):
    tags = batch.tags
    n = len(batch)
    split = n
    for i, t in enumerate(tags):
        if t == DomainTag.MAESTRO:
            split = i
            break
    swapped = list(range(split, n)) + list(range(split))
    perm = rng.permutation(n) if permutation is None else np.asarray(permutation)
    return [swapped[p] for p in perm]


def _freq_mixstyle_per_map(batch, cfg, rng, lam=None, permutation=None):
    if not rng.bernoulli(cfg.p):
        return list(batch.maps), list(batch.tags)
    n = len(batch)
    ref_maps = [batch.maps[i] for i in _make_reference_batch_per_map(batch, rng, permutation)]
    if lam is None:
        lam_vec = beta_sample(rng, cfg.alpha, size=n)
    else:
        lam_vec = np.broadcast_to(np.asarray(lam, dtype=np.float64), (n,))

    x = _stack(batch.maps).astype(np.float64)
    r = _stack(ref_maps).astype(np.float64)
    mu_x = x.mean(axis=(1, 3))
    sd_x = x.std(axis=(1, 3))
    mu_r = r.mean(axis=(1, 3))
    sd_r = r.std(axis=(1, 3))

    w = lam_vec[:, None]
    mu_mix = w * mu_x + (1.0 - w) * mu_r
    sd_mix = w * sd_x + (1.0 - w) * sd_r

    def per_bin(a):
        return a[:, None, :, None]

    out = per_bin(sd_mix) * (x - per_bin(mu_x)) / (per_bin(sd_x) + cfg.eps)
    out += per_bin(mu_mix)
    return [FeatureMap(out[i].astype(np.float32)) for i in range(n)], list(batch.tags)


@st.composite
def _mix_case(draw):
    """A DESED/MAESTRO batch, a config, a seed, and optionally pinned lam/permutation."""
    n_desed = draw(st.integers(0, 4))
    n_maestro = draw(st.integers(0 if n_desed else 1, 4))
    n = n_desed + n_maestro
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loc = draw(st.sampled_from([0.0, -40.0]))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    data = rng.normal(loc, scale, size=(n, *shape))
    if draw(st.booleans()):
        data[:, :, 0, :] = -23.0  # a constant bin: sigma 0
    tags = [DomainTag.DESED] * n_desed + [DomainTag.MAESTRO] * n_maestro
    batch = make_batch([FeatureMap(d.astype(np.float32)) for d in data], tags)
    cfg = MixStyleConfig(p=draw(st.sampled_from([0.0, 0.5, 1.0])),
                         alpha=draw(st.sampled_from([0.1, 0.6, 4.0])))
    lam = draw(st.none() | st.floats(0.0, 1.0)
               | st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    permutation = draw(st.none() | st.permutations(range(n)))
    return batch, cfg, draw(st.integers(0, 2**64 - 1)), lam, permutation


@pytest.fixture(scope="module")
def fmt_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mix") / "out.fmt"


@settings(max_examples=200, deadline=None)
@given(_mix_case())
def test_array_path_equals_per_map_reference(fmt_path, case):
    batch, cfg, seed, lam, permutation = case
    out = freq_mixstyle(batch, cfg, RandomSource(seed), lam=lam, permutation=permutation)
    want_maps, want_tags = _freq_mixstyle_per_map(
        batch, cfg, RandomSource(seed), lam=lam, permutation=permutation
    )
    assert np.array_equal(out.data, _stack(want_maps))
    assert list(out.tags) == want_tags

    order = make_reference_batch(batch, RandomSource(seed), permutation=permutation)
    want_order = _make_reference_batch_per_map(batch, RandomSource(seed), permutation=permutation)
    assert order.dtype.kind == "i" and order.tolist() == want_order

    write_fmt(out, fmt_path)
    written = fmt_path.read_bytes()
    assert written == (
        b"FMT1" + struct.pack("<4I", len(out), *out.shape)
        + _stack(want_maps).astype("<f4").tobytes() + bytes(int(t) for t in want_tags)
    )
    back = read_fmt(fmt_path)
    assert np.array_equal(back.data, out.data) and back.tags == out.tags
    write_fmt(back, fmt_path)
    assert fmt_path.read_bytes() == written
