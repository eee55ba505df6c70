"""WAV ingestion, resampling, and log-mel extraction."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.signal import get_window, resample_poly

from sedtk.errors import ConfigInvalidError, EmptyAudioError, ParseError
from sedtk.frontend import (
    _BLOCK_BYTES,
    AudioClip,
    _analysis_tables,
    _resample_filter,
    MelConfig,
    hz_to_mel,
    log_mel,
    mel_center_frequencies,
    mel_filterbank,
    mel_to_hz,
    read_wav,
    resample_to_mono_16k,
    write_wav,
)

SR = 16000


def _tone(freq, seconds, sr=SR, amp=1.0):
    t = np.arange(int(round(seconds * sr))) / sr
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float32)


class TestResample:
    def test_identity_fast_path(self):
        clip = AudioClip(_tone(440, 0.5), SR)
        out = resample_to_mono_16k(clip)
        assert out.sample_rate == SR
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_32k_sine_lands_on_440(self):
        clip = AudioClip(_tone(440, 1.0, sr=32000), 32000)
        out = resample_to_mono_16k(clip)
        assert out.samples.shape[0] == 16000
        spec = np.abs(np.fft.rfft(out.samples.astype(np.float64)))
        peak = int(np.argmax(spec))  # 1 s of audio -> 1 Hz bins
        assert abs(peak - 440) <= 1

    def test_stereo_identical_channels(self):
        mono = _tone(440, 0.25, sr=32000)
        stereo = AudioClip(np.stack([mono, mono], axis=1), 32000)
        out_stereo = resample_to_mono_16k(stereo)
        out_mono = resample_to_mono_16k(AudioClip(mono, 32000))
        np.testing.assert_allclose(out_stereo.samples, out_mono.samples, atol=1e-6)

    def test_empty_audio(self):
        with pytest.raises(EmptyAudioError):
            resample_to_mono_16k(AudioClip(np.zeros(0, np.float32), SR))

    @pytest.mark.parametrize("rate", [8000, 11025, 22050, 32000, 44100, 48000])
    def test_cached_filter_equals_resample_poly_default(self, rate):
        samples = np.random.default_rng(rate).uniform(-1, 1, rate // 4).astype(np.float32)
        out = resample_to_mono_16k(AudioClip(samples, rate))
        up, down = 16000 // np.gcd(rate, 16000), rate // np.gcd(rate, 16000)
        want = resample_poly(samples.astype(np.float64), up, down).astype(np.float32)
        np.testing.assert_array_equal(out.samples, want)
        taps = _resample_filter(up, down)
        assert taps is _resample_filter(up, down)
        assert not taps.flags.writeable


class TestMelScale:
    def test_round_trip(self):
        freqs = np.array([0.0, 250.0, 999.0, 1000.0, 4000.0, 8000.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, atol=1e-9)

    def test_linear_below_1khz(self):
        assert hz_to_mel(500.0) == pytest.approx(7.5)

    def test_filterbank_shape_and_coverage(self):
        cfg = MelConfig()
        fb = mel_filterbank(cfg)
        assert fb.shape == (128, 1025)
        assert np.all(fb >= 0)
        assert np.all(fb.sum(axis=1) > 0)  # every filter collects something


class TestLogMel:
    def test_silence_hits_log_floor(self):
        cfg = MelConfig()
        fm = log_mel(AudioClip(np.zeros(10 * SR, np.float32), SR), cfg)
        np.testing.assert_array_equal(
            fm.data, np.float32(np.log(cfg.log_floor))
        )

    def test_tone_argmax_is_nearest_center(self):
        cfg = MelConfig()
        fm = log_mel(AudioClip(_tone(1000, 10), SR), cfg)
        profile = fm.data[0].mean(axis=1)
        centers = mel_center_frequencies(cfg)
        assert int(np.argmax(profile)) == int(np.argmin(np.abs(centers - 1000.0)))

    def test_padding_contract(self):
        cfg = MelConfig()
        short = log_mel(AudioClip(np.zeros(4 * SR, np.float32), SR), cfg)
        full = log_mel(AudioClip(np.zeros(10 * SR, np.float32), SR), cfg)
        assert short.shape == full.shape

    def test_shape(self):
        cfg = MelConfig()
        fm = log_mel(AudioClip(_tone(500, 10), SR), cfg)
        assert fm.shape == (1, 128, 10 * SR // 256 + 1)

    @pytest.mark.parametrize("seconds", [10.0, 10.5, 11.0, 12.34, 20.0])
    def test_frame_count_formula(self, seconds):
        cfg = MelConfig()
        n = int(round(seconds * SR))
        fm = log_mel(AudioClip(np.zeros(n, np.float32), SR), cfg)
        assert fm.shape[2] == n // cfg.hop_length + 1

    def test_energy_monotonicity(self):
        rng = np.random.default_rng(0)
        wave = rng.normal(scale=0.1, size=10 * SR).astype(np.float32)
        cfg = MelConfig()
        base = log_mel(AudioClip(wave, SR), cfg)
        louder = log_mel(AudioClip(wave * np.float32(3.0), SR), cfg)
        assert np.all(louder.data >= base.data - 1e-6)

    def test_determinism(self):
        wave = _tone(313, 10)
        cfg = MelConfig()
        a = log_mel(AudioClip(wave, SR), cfg)
        b = log_mel(AudioClip(wave.copy(), SR), cfg)
        np.testing.assert_array_equal(a.data, b.data)

    def test_rate_mismatch(self):
        with pytest.raises(ConfigInvalidError):
            log_mel(AudioClip(_tone(440, 1, sr=32000), 32000), MelConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigInvalidError):
            MelConfig(fmax=9000.0)
        with pytest.raises(ConfigInvalidError):
            MelConfig(hop_length=4096)
        with pytest.raises(ConfigInvalidError):
            MelConfig(n_mels=0)


def _dense_log_mel(samples, cfg):
    """The uncached path: window and dense filterbank rebuilt, one dense product.

    Returns the float64 power spectrogram and mel power (before the log and
    the cast) and the float32 log-mel map.
    """
    target_len = int(round(cfg.pad_to_seconds * cfg.sample_rate))
    y = np.pad(samples.astype(np.float64), (0, max(0, target_len - samples.size)))
    y = np.pad(y, (cfg.n_fft // 2, cfg.n_fft // 2), mode="reflect")
    n_frames = 1 + (y.shape[0] - cfg.n_fft) // cfg.hop_length
    frames = np.lib.stride_tricks.sliding_window_view(y, cfg.n_fft)[:: cfg.hop_length][:n_frames]
    window = get_window("hann", cfg.win_length, fftbins=True)
    if cfg.win_length < cfg.n_fft:
        lpad = (cfg.n_fft - cfg.win_length) // 2
        window = np.pad(window, (lpad, cfg.n_fft - cfg.win_length - lpad))
    spec = np.abs(np.fft.rfft(frames * window, n=cfg.n_fft, axis=1)) ** 2
    mel = mel_filterbank(cfg) @ spec.T
    return spec, mel, np.log(np.maximum(mel, cfg.log_floor)).astype(np.float32)


_PROJECTION_CONFIGS = [
    MelConfig(),
    MelConfig(n_mels=64),
    MelConfig(n_mels=256),
    MelConfig(win_length=1024),
    MelConfig(fmin=50.0, fmax=7000.0),
    MelConfig(n_fft=512, win_length=512, hop_length=128, n_mels=40),
]


def _benchmark_like_clips():
    rng = np.random.default_rng(0)
    noise = rng.normal(scale=0.1, size=10 * SR).astype(np.float32)
    hum = rng.normal(scale=0.01, size=int(6.5 * SR)).astype(np.float32)
    short_mix = _tone(440, 6.5, amp=0.3) + hum  # right-padded to 10 s
    return [_tone(1000, 10, amp=0.5), noise, short_mix]


class TestCachedProjection:
    @pytest.mark.parametrize(
        "cfg", _PROJECTION_CONFIGS,
        ids=["default", "mels64", "mels256", "win1024", "fmin50-fmax7k", "nfft512"],
    )
    def test_matches_dense_reference(self, cfg):
        window, filterbank = _analysis_tables(cfg)
        for samples in _benchmark_like_clips():
            spec, dense_mel, dense_out = _dense_log_mel(samples, cfg)
            np.testing.assert_allclose(filterbank @ spec.T, dense_mel, rtol=1e-12, atol=0.0)
            got = log_mel(AudioClip(samples, SR), cfg)
            np.testing.assert_array_equal(got.data[0], dense_out)
        assert window.shape == (cfg.n_fft,)

    @pytest.mark.parametrize(
        "cfg", [_PROJECTION_CONFIGS[0], _PROJECTION_CONFIGS[5], _PROJECTION_CONFIGS[3]],
        ids=["default", "nfft512", "win1024"],
    )
    def test_block_edges_match_dense_reference(self, cfg):
        # Frame counts around log_mel's block of frames. One frame is out of
        # reach: a clip is at least n_fft long and hop <= n_fft, so T >= 2.
        block = _BLOCK_BYTES // (8 * cfg.n_fft)
        fewest = cfg.n_fft // cfg.hop_length + 1
        rng = np.random.default_rng(1)
        for i, n_frames in enumerate([fewest, block - 1, block, block + 1, 2 * block + 1]):
            n_samples = (n_frames - 1) * cfg.hop_length
            if i % 2:  # the clip sets the count
                samples, pad_s = rng.normal(scale=0.1, size=n_samples), 0.0
            else:  # padding to pad_to_seconds sets it
                samples, pad_s = rng.normal(scale=0.1, size=n_samples // 3), n_samples / SR
            samples = samples.astype(np.float32)
            padded = dataclasses.replace(cfg, pad_to_seconds=pad_s)
            got = log_mel(AudioClip(samples, SR), padded)
            assert got.shape == (1, cfg.n_mels, n_frames)
            np.testing.assert_array_equal(got.data[0], _dense_log_mel(samples, padded)[2])

    def test_ten_second_clip_peak_memory(self):
        cfg = MelConfig()
        clip = AudioClip(_benchmark_like_clips()[1], SR)
        log_mel(clip, cfg)  # the cached tables are built outside the traced call
        tracemalloc.start()
        try:
            log_mel(clip, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"log_mel peaked at {peak / 2**20:.1f} MiB"

    def test_filterbank_copy_is_detached_from_cache(self):
        cfg = MelConfig()
        clip = AudioClip(_tone(1000, 10), SR)
        before = log_mel(clip, cfg)
        fb = mel_filterbank(cfg)
        fb *= 2.0
        fb[:, :10] = 1.0
        after = log_mel(clip, cfg)
        np.testing.assert_array_equal(after.data, before.data)
        assert not np.shares_memory(fb, mel_filterbank(cfg))

    def test_cached_window_is_read_only(self):
        cfg = MelConfig(win_length=1024)
        window, _ = _analysis_tables(cfg)
        assert window is _analysis_tables(cfg)[0]
        assert not window.flags.writeable
        with pytest.raises(ValueError):
            window[0] = 1.0


class TestWavIO:
    @pytest.mark.parametrize(
        "encoding,tol",
        [
            ("float32", 0.0),
            ("pcm16", 1.0 / 32768 + 1e-7),
            ("pcm24", 1.0 / 8388608 + 1e-7),
            ("pcm32", 1e-6),
        ],
    )
    def test_round_trip(self, tmp_path, encoding, tol):
        wave = _tone(440, 0.05, amp=0.8)
        path = tmp_path / f"{encoding}.wav"
        write_wav(path, AudioClip(wave, SR), encoding)
        back = read_wav(path)
        assert back.sample_rate == SR
        assert np.abs(back.samples - wave).max() <= tol

    def test_stereo_round_trip(self, tmp_path):
        wave = _tone(440, 0.05)
        stereo = np.stack([wave, 0.5 * wave], axis=1)
        path = tmp_path / "st.wav"
        write_wav(path, AudioClip(stereo, SR), "float32")
        back = read_wav(path)
        assert back.samples.shape == stereo.shape
        np.testing.assert_allclose(back.samples, stereo, atol=1e-7)

    def test_rejects_non_wav(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"not a wav at all")
        with pytest.raises(ParseError):
            read_wav(path)

    def test_rejects_unsupported_bits(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, AudioClip(_tone(440, 0.01), SR), "pcm16")
        raw = bytearray(path.read_bytes())
        raw[34] = 8  # claim 8-bit PCM
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            read_wav(path)
