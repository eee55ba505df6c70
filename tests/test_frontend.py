"""WAV ingestion, resampling, and log-mel extraction."""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import get_window, resample_poly

from sedtk.errors import ConfigInvalidError, EmptyAudioError, ParseError
from sedtk.frontend import (
    _BLOCK_BYTES,
    AudioClip,
    _analysis_tables,
    _downmix,
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

    def test_multichannel_16k_clip_is_the_float64_channel_mean(self):
        samples = np.random.default_rng(3).uniform(-1, 1, (1000, 3)).astype(np.float32)
        out = resample_to_mono_16k(AudioClip(samples, SR))
        assert out.samples.tobytes() == samples.mean(axis=1, dtype=np.float64).astype(np.float32).tobytes()

    def test_empty_audio(self):
        with pytest.raises(EmptyAudioError):
            resample_to_mono_16k(AudioClip(np.zeros(0, np.float32), SR))

    def test_rate_above_limit_is_refused_before_any_filter(self):
        clip = AudioClip(np.zeros(100, np.float32), 2**32 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigInvalidError, match="4294967295 Hz is above 768000 Hz"):
                resample_to_mono_16k(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"refusing the rate peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("rate, ratio", [(96001, "16000/96001"), (16001, "16000/16001"),
                                             (11024, "1000/689"), (767999, "16000/767999")])
    def test_rate_with_a_long_filter_is_refused_before_any_filter(self, rate, ratio):
        # 96001 Hz would build a filter of 1.92 M taps; 11025 Hz (640/441) is the largest taken.
        clip = AudioClip(np.zeros(rate // 10, np.float32), rate)
        want = f"{rate} Hz resamples to 16 kHz as {ratio}, a ratio term above 640"
        tracemalloc.start()
        try:
            with pytest.raises(ConfigInvalidError, match=want):
                resample_to_mono_16k(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"refusing the rate peaked at {peak / 2**20:.1f} MiB"

    # Every standard rate from 8 kHz to 384 kHz, and the 768 kHz limit itself.
    @pytest.mark.parametrize("rate", [
        8000, 11025, 22050, 32000, 44100, 48000, 88200, 96000,
        176400, 192000, 352800, 384000, 768000,
    ])
    def test_cached_filter_equals_resample_poly_default(self, rate):
        samples = np.random.default_rng(rate).uniform(-1, 1, rate // 4).astype(np.float32)
        out = resample_to_mono_16k(AudioClip(samples, rate))
        up, down = 16000 // np.gcd(rate, 16000), rate // np.gcd(rate, 16000)
        want = resample_poly(samples.astype(np.float64), up, down).astype(np.float32)
        np.testing.assert_array_equal(out.samples, want)
        taps = _resample_filter(up, down)
        assert taps is _resample_filter(up, down)
        assert not taps.flags.writeable


# Samples that stress a float64 channel sum: signed zeros, tiny and huge
# magnitudes that cancel or absorb each other, and plain audio values.
_DOWNMIX_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 2.0**-60, -(2.0**-60), 1.0, -1.0, 2.0**100, -(2.0**100), 1e-45]),
    st.floats(-1.0, 1.0, width=32),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


@settings(deadline=None, max_examples=400)
@given(st.integers(1, 16), st.integers(1, 12), st.data())
@example(1, 3, None)
@example(7, 2, None)
@example(8, 2, None)
@example(8, 1, "cancel")
def test_downmix_equals_float64_channel_mean(n_channels, n, data):
    if data is None:  # every value -0.0: a signed zero must come out as mean's
        samples = np.full((n, n_channels), -0.0, np.float32)
    elif data == "cancel":  # added in channel order this is 0.0; numpy's mean gives 0.1875
        samples = np.array([[0.5, 2.0**-30, 1.0, 2.0**-60, 3.0, 2.0**100, -1.0, -(2.0**100)]], np.float32)
    else:
        values = st.lists(_DOWNMIX_VALUES, min_size=n * n_channels, max_size=n * n_channels)
        samples = np.array(data.draw(values), np.float32).reshape(n, n_channels)
    # The form it replaces: numpy's float64 mean over each row, cast to float32.
    with np.errstate(over="ignore", invalid="ignore"):
        want = samples.mean(axis=1, dtype=np.float64).astype(np.float32)
        got = _downmix(samples)
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_channels", range(1, 17))
def test_downmix_of_a_long_clip_equals_float64_channel_mean(n_channels):
    # Longer than numpy's 8192-value buffers, so a row mean crosses them. A
    # float32 row of plain values sums exactly in float64 in any order, so a
    # third of the rows also hold +2**100 and -2**100, which absorb the rest
    # or not depending on the order of the adds.
    rng = np.random.default_rng(n_channels)
    samples = rng.uniform(-1, 1, (20011, n_channels)).astype(np.float32)
    samples *= np.float32(2.0) ** rng.integers(-60, 20, samples.shape)
    if n_channels > 1:
        rows = np.arange(0, 20011, 3)
        big = rng.permuted(np.tile(np.arange(n_channels), (rows.size, 1)), axis=1)[:, :2]
        samples[rows, big[:, 0]] = 2.0**100
        samples[rows, big[:, 1]] = -(2.0**100)
    want = samples.mean(axis=1, dtype=np.float64).astype(np.float32)
    assert _downmix(samples).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize(
        "cfg", [_PROJECTION_CONFIGS[0], _PROJECTION_CONFIGS[5], MelConfig(n_fft=511, win_length=400)],
        ids=["default", "nfft512", "nfft511"],
    )
    @pytest.mark.parametrize("length", ["n_fft", "pad_to_seconds", "pad_to_seconds+1"])
    def test_padding_edges_match_dense_reference(self, cfg, length):
        # _dense_log_mel pads with np.pad: zeros to pad_to_seconds, then n_fft // 2
        # reflected samples at each end. At n = n_fft the reflection reaches
        # almost the whole clip; at pad_to_seconds no zeros are added.
        pad_s = 0.25
        n = {"n_fft": cfg.n_fft, "pad_to_seconds": int(pad_s * SR), "pad_to_seconds+1": int(pad_s * SR) + 1}
        rng = np.random.default_rng(7)
        samples = rng.normal(scale=0.1, size=n[length]).astype(np.float32)
        padded = dataclasses.replace(cfg, pad_to_seconds=0.0 if length == "n_fft" else pad_s)
        got = log_mel(AudioClip(samples, SR), padded)
        np.testing.assert_array_equal(got.data[0], _dense_log_mel(samples, padded)[2])
        if length == "n_fft":  # also as the shortest clip padded up to n_fft
            short = dataclasses.replace(cfg, pad_to_seconds=cfg.n_fft / SR)
            got = log_mel(AudioClip(samples[: cfg.n_fft // 3], SR), short)
            np.testing.assert_array_equal(got.data[0], _dense_log_mel(samples[: cfg.n_fft // 3], short)[2])

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

    def test_ten_second_stereo_pcm16_peak_memory(self, tmp_path):
        samples = np.random.default_rng(4).uniform(-1, 1, (441000, 2)).astype(np.float32)
        path = tmp_path / "st.wav"
        write_wav(path, AudioClip(samples, 44100), "pcm16")
        size = path.stat().st_size
        read_wav(path)
        tracemalloc.start()
        try:
            clip = read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The file's bytes and the float32 samples: no copy of the 1.76 MB data
        # chunk, no second float array and no finiteness mask, as PCM is finite.
        bound = size + 1.05 * clip.samples.nbytes
        assert peak < bound, f"read_wav peaked at {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f}"

    def test_a_float_wav_holding_nan_is_refused(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, AudioClip(_tone(440, 0.01), SR), "float32")
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<f", float("nan"))  # the last sample
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigInvalidError, match="NaN or Inf"):
            read_wav(path)

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

    @pytest.mark.parametrize("n_channels", [1, 2])
    @pytest.mark.parametrize("encoding", ["float32", "pcm16", "pcm24", "pcm32"])
    def test_partial_trailing_frame_is_dropped(self, tmp_path, encoding, n_channels):
        wave = np.linspace(-0.9, 0.9, 11 * n_channels, dtype=np.float32)
        path = tmp_path / "x.wav"
        write_wav(path, AudioClip(wave.reshape(11, n_channels).squeeze(), SR), encoding)
        raw = path.read_bytes()
        whole = read_wav(path).samples
        (block,) = struct.unpack("<H", raw[32:34])
        for cut in range(1, block):  # the data chunk ends partway through the 11th frame
            size = 10 * block + cut
            path.write_bytes(raw[:40] + struct.pack("<I", size) + raw[44 : 44 + size])
            np.testing.assert_array_equal(read_wav(path).samples, whole[:10])


# The four-branch codec the encoding table replaced, kept as the reference the
# table's reads and writes must match bit for bit.

def _four_branch_wav(samples: np.ndarray, rate: int, encoding: str) -> tuple[bytes, bytes]:
    """The whole file and its sample payload."""
    n_channels = 1 if samples.ndim == 1 else samples.shape[1]
    flat = samples.reshape(-1)
    if encoding == "float32":
        tag, bits = 3, 32
        payload = flat.astype("<f4").tobytes()
    elif encoding == "pcm16":
        tag, bits = 1, 16
        payload = np.clip(np.round(flat * 32768.0), -32768, 32767).astype("<i2").tobytes()
    elif encoding == "pcm32":
        tag, bits = 1, 32
        payload = (
            np.clip(np.round(flat.astype(np.float64) * 2147483648.0), -(2**31), 2**31 - 1)
            .astype("<i4")
            .tobytes()
        )
    else:
        tag, bits = 1, 24
        vals = np.clip(np.round(flat * 8388608.0), -(2**23), 2**23 - 1).astype(np.int32)
        u = vals.astype(np.uint32) & 0xFFFFFF
        b = np.empty((u.shape[0], 3), dtype=np.uint8)
        b[:, 0] = u & 0xFF
        b[:, 1] = (u >> 8) & 0xFF
        b[:, 2] = (u >> 16) & 0xFF
        payload = b.tobytes()
    block = n_channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, n_channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        body += b"\x00"
    return b"RIFF" + struct.pack("<I", len(body)) + body, payload


def _four_branch_decode(data: bytes, encoding: str, n_channels: int) -> np.ndarray:
    if encoding == "float32":
        samples = np.frombuffer(data, dtype="<f4").astype(np.float32)
    elif encoding == "pcm16":
        samples = np.frombuffer(data, dtype="<i2").astype(np.float32) / 32768.0
    elif encoding == "pcm32":
        samples = np.frombuffer(data, dtype="<i4").astype(np.float32) / 2147483648.0
    else:
        b = np.frombuffer(data[: len(data) - len(data) % 3], dtype=np.uint8)
        b = b.reshape(-1, 3).astype(np.uint32)
        vals = (b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)).astype(np.int32)
        vals = (vals << 8) >> 8
        samples = vals.astype(np.float32) / 8388608.0
    samples = samples[: samples.shape[0] - samples.shape[0] % n_channels]
    return samples.reshape(-1, n_channels) if n_channels > 1 else samples


_BITS = {"float32": 32, "pcm16": 16, "pcm24": 24, "pcm32": 32}


@st.composite
def _wav_clip(draw):
    """An encoding and a clip with values at ±1, beyond it, -0.0 and k / 2**(bits-1) edges."""
    encoding = draw(st.sampled_from(sorted(_BITS)))
    full = 2 ** (_BITS[encoding] - 1)
    value = st.one_of(
        st.sampled_from([1.0, -1.0, -0.0, 0.0, 1.5, -1.5, 3.4e38, -3.4e38, 1 - 2**-24]),
        st.integers(-full - 2, full + 2).map(lambda k: k / full),
        st.integers(-full - 2, full + 2).map(lambda k: (k + 0.5) / full),
        st.floats(-2.0, 2.0, width=32),
    )
    n_channels = draw(st.integers(1, 3))
    frames = draw(st.lists(st.lists(value, min_size=n_channels, max_size=n_channels), max_size=12))
    samples = np.array(frames, dtype=np.float32).reshape(-1, n_channels)
    return encoding, samples[:, 0] if n_channels == 1 else samples


# The reference scales pcm16 and pcm24 in float32, where ±3.4e38 overflows to ±inf.
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_wav_clip())
def test_wav_codec_matches_four_branch_codec(tmp_path_factory, case):
    encoding, samples = case
    n_channels = 1 if samples.ndim == 1 else samples.shape[1]
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    write_wav(path, AudioClip(samples, SR), encoding)
    want, payload = _four_branch_wav(samples, SR, encoding)
    assert path.read_bytes() == want
    got, ref = read_wav(path).samples, _four_branch_decode(payload, encoding, n_channels)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["pcm16", "pcm24", "pcm32"]),
    st.integers(1, 3),
    st.binary(max_size=96),
)
@example("pcm24", 1, b"\x00\x00\x80\xff\xff\x7f\xff\xff\xff\x01\x00\x00")
@example("pcm16", 2, b"\x00\x80\xff\x7f\xff\xff\x01\x00")
@example("pcm32", 1, b"\x00\x00\x00\x80\xff\xff\xff\x7f\xff\xff\xff\xff")
def test_read_wav_decodes_every_pcm_pattern_as_four_branch_codec(
    tmp_path_factory, encoding, n_channels, payload
):
    block = n_channels * _BITS[encoding] // 8
    payload = payload[: len(payload) - len(payload) % block]
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    frames = np.zeros((len(payload) // block, n_channels), np.float32)
    write_wav(path, AudioClip(frames, SR), encoding)
    path.write_bytes(path.read_bytes()[:44] + payload + b"\x00" * (len(payload) & 1))
    got, ref = read_wav(path).samples, _four_branch_decode(payload, encoding, n_channels)
    assert got.shape[0] == len(payload) // block
    assert got.reshape(-1).tobytes() == ref.reshape(-1).tobytes()
