"""Audio-to-log-mel feature extraction.

Pipeline: 16 kHz mono waveform (multi-channel input is averaged, then
polyphase-resampled), right-padded with silence to a minimum duration,
center-padded STFT with a periodic Hann window, power spectrogram, a
Slaney-style area-normalized triangular mel filterbank spanning
fmin..fmax, and a natural log with a fixed floor. The frame count obeys
T = floor(L_padded / hop) + 1.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.signal import firwin, get_window, resample_poly
from scipy.sparse import csr_array

from .core import FeatureMap, atomic_open
from .errors import ConfigInvalidError, EmptyAudioError, ParseError

# Slaney mel scale: linear below 1 kHz, logarithmic above.
_MEL_HZ_PER_STEP = 200.0 / 3.0
_MEL_LOG_HZ = 1000.0
_MEL_LOG_MEL = _MEL_LOG_HZ / _MEL_HZ_PER_STEP
_MEL_LOG_STEP = math.log(6.4) / 27.0

_BLOCK_BYTES = 1 << 20  # of float64 windowed frames per log_mel block: 64 frames at n_fft=2048


@dataclass(frozen=True)
class AudioClip:
    """Waveform samples (1-D mono or (n, channels)) at a given rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float32)
        if arr.ndim not in (1, 2):
            raise ConfigInvalidError(f"samples must be 1-D or 2-D, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ConfigInvalidError("samples contain NaN or Inf")
        if not self.sample_rate > 0:
            raise ConfigInvalidError(f"sample_rate must be > 0, got {self.sample_rate}")
        object.__setattr__(self, "samples", arr)

    @property
    def duration_s(self) -> float:
        return self.samples.shape[0] / self.sample_rate


@dataclass(frozen=True)
class MelConfig:
    sample_rate: int = 16000
    win_length: int = 2048
    hop_length: int = 256
    n_fft: int = 2048
    n_mels: int = 128
    fmin: float = 0.0
    fmax: float = 8000.0
    log_floor: float = 1e-10
    pad_to_seconds: float = 10.0

    def __post_init__(self):
        if self.fmax > self.sample_rate / 2:
            raise ConfigInvalidError(
                f"fmax={self.fmax} exceeds Nyquist {self.sample_rate / 2}"
            )
        if self.n_mels < 1:
            raise ConfigInvalidError("n_mels must be >= 1")
        if not 0 < self.hop_length <= self.win_length <= self.n_fft:
            raise ConfigInvalidError(
                "need 0 < hop_length <= win_length <= n_fft, got "
                f"hop={self.hop_length} win={self.win_length} n_fft={self.n_fft}"
            )
        if not self.log_floor > 0:
            raise ConfigInvalidError("log_floor must be > 0")
        if not 0 <= self.fmin < self.fmax:
            raise ConfigInvalidError("need 0 <= fmin < fmax")
        if not 0 <= self.pad_to_seconds < float("inf"):
            raise ConfigInvalidError(
                f"pad_to_seconds must be finite and >= 0, got {self.pad_to_seconds}"
            )


def hz_to_mel(freq_hz):
    """Slaney mel value(s) for frequency in Hz."""
    f = np.asarray(freq_hz, dtype=np.float64)
    mel = f / _MEL_HZ_PER_STEP
    above = f >= _MEL_LOG_HZ
    mel = np.where(
        above,
        _MEL_LOG_MEL + np.log(np.maximum(f, _MEL_LOG_HZ) / _MEL_LOG_HZ) / _MEL_LOG_STEP,
        mel,
    )
    return mel if mel.ndim else float(mel)


def mel_to_hz(mel):
    """Inverse of :func:`hz_to_mel`."""
    m = np.asarray(mel, dtype=np.float64)
    f = m * _MEL_HZ_PER_STEP
    above = m >= _MEL_LOG_MEL
    f = np.where(
        above,
        _MEL_LOG_HZ * np.exp(_MEL_LOG_STEP * (np.maximum(m, _MEL_LOG_MEL) - _MEL_LOG_MEL)),
        f,
    )
    return f if f.ndim else float(f)


def mel_center_frequencies(cfg: MelConfig) -> np.ndarray:
    """Center frequency in Hz of each of the n_mels triangular filters."""
    pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    return mel_to_hz(pts)[1:-1]


def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """Triangular (n_mels, 1 + n_fft//2) filterbank, Slaney area-normalized.

    Band edges are uniformly spaced on the mel scale between fmin and fmax;
    each triangle is scaled by 2 / (upper_hz - lower_hz) so filters have
    roughly constant energy per band.
    """
    fft_freqs = np.linspace(0.0, cfg.sample_rate / 2.0, 1 + cfg.n_fft // 2)
    mel_pts = mel_to_hz(
        np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    )
    fdiff = np.diff(mel_pts)
    ramps = mel_pts[:, None] - fft_freqs[None, :]
    lower = -ramps[:-2] / fdiff[:-1, None]
    upper = ramps[2:] / fdiff[1:, None]
    weights = np.maximum(0.0, np.minimum(lower, upper))
    enorm = 2.0 / (mel_pts[2:] - mel_pts[:-2])
    return weights * enorm[:, None]


@lru_cache(maxsize=8)
def _analysis_tables(cfg: MelConfig) -> tuple[np.ndarray, csr_array]:
    """Read-only n_fft-long window and sparse filterbank, built once per config.

    The periodic Hann window is zero-padded to n_fft, centered. Each
    triangular filter touches only the FFT bins between its band edges, so
    the filterbank is held as CSR and applied without a dense GEMM.
    """
    window = get_window("hann", cfg.win_length, fftbins=True)
    if cfg.win_length < cfg.n_fft:
        lpad = (cfg.n_fft - cfg.win_length) // 2
        window = np.pad(window, (lpad, cfg.n_fft - cfg.win_length - lpad))
    window.flags.writeable = False
    return window, csr_array(mel_filterbank(cfg))


@lru_cache(maxsize=8)
def _resample_filter(up: int, down: int) -> np.ndarray:
    """Read-only anti-aliasing FIR of ``resample_poly(x, up, down)``, built once.

    It is the filter resample_poly designs when given no window array: a
    Kaiser (beta 5) low-pass with its cutoff at 1 / max(up, down) of
    Nyquist and 10 * max(up, down) taps on each side. resample_poly copies
    a window array and scales the copy by ``up``, as it scales its own.
    """
    rate = max(up, down)
    taps = firwin(20 * rate + 1, 1.0 / rate, window=("kaiser", 5.0))
    taps.flags.writeable = False
    return taps


def resample_to_mono_16k(clip: AudioClip) -> AudioClip:
    """Average channels to mono, then band-limited polyphase resample to 16 kHz."""
    if clip.samples.shape[0] == 0:
        raise EmptyAudioError("clip has zero samples")
    mono = clip.samples
    if mono.ndim == 2:
        mono = mono.mean(axis=1, dtype=np.float64).astype(np.float32)
    if clip.sample_rate == 16000:
        return AudioClip(samples=mono, sample_rate=16000)
    g = math.gcd(int(clip.sample_rate), 16000)
    up, down = 16000 // g, int(clip.sample_rate) // g
    out = resample_poly(mono.astype(np.float64), up, down, window=_resample_filter(up, down))
    return AudioClip(samples=out.astype(np.float32), sample_rate=16000)


def log_mel(clip: AudioClip, cfg: MelConfig) -> FeatureMap:
    """Log-mel feature map with C=1, F=n_mels, T=floor(L_padded/hop)+1.

    The clip must already be mono at cfg.sample_rate. Clips shorter than
    pad_to_seconds are right-padded with zeros before analysis. Frames are
    centered (reflection padding by n_fft//2 at the signal edges).
    """
    if clip.sample_rate != cfg.sample_rate:
        raise ConfigInvalidError(
            f"clip rate {clip.sample_rate} != config rate {cfg.sample_rate}; "
            "resample first"
        )
    if clip.samples.ndim != 1:
        raise ConfigInvalidError("log_mel expects a mono clip; resample first")
    y = clip.samples.astype(np.float64)
    target_len = int(round(cfg.pad_to_seconds * cfg.sample_rate))
    if y.shape[0] < target_len:
        y = np.pad(y, (0, target_len - y.shape[0]))
    if y.shape[0] < cfg.n_fft:
        raise ConfigInvalidError(
            f"padded clip ({y.shape[0]} samples) shorter than n_fft={cfg.n_fft}"
        )

    pad = cfg.n_fft // 2
    y = np.pad(y, (pad, pad), mode="reflect")
    n_frames = 1 + (y.shape[0] - cfg.n_fft) // cfg.hop_length
    frames = np.lib.stride_tricks.sliding_window_view(y, cfg.n_fft)[
        :: cfg.hop_length
    ][:n_frames]

    window, filterbank = _analysis_tables(cfg)
    # Frames go through in blocks of about _BLOCK_BYTES of windowed samples,
    # so the spectrum never exists for the whole clip. Each frame's FFT and
    # each mel column's sum are the same whatever block they fall in.
    block = max(1, _BLOCK_BYTES // (8 * cfg.n_fft))
    windowed = np.empty((min(block, n_frames), cfg.n_fft))
    mel = np.empty((cfg.n_mels, n_frames))
    for start in range(0, n_frames, block):
        stop = min(start + block, n_frames)
        buf = np.multiply(frames[start:stop], window, out=windowed[: stop - start])
        spec = np.abs(np.fft.rfft(buf, n=cfg.n_fft, axis=1))
        np.square(spec, out=spec)
        mel[:, start:stop] = filterbank @ spec.T
    np.maximum(mel, cfg.log_floor, out=mel)
    np.log(mel, out=mel)
    return FeatureMap._own(mel[None, :, :].astype(np.float32))


# --- WAV ingestion (RIFF/WAVE, little-endian PCM 16/24/32 and float32) ---

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


def read_wav(path) -> AudioClip:
    """Read a RIFF/WAVE file into float samples in [-1, 1].

    Supports PCM 16/24/32-bit and IEEE float32, little-endian, including
    the extensible-format wrapper. Multi-channel data comes back as
    (n, channels); average to mono via :func:`resample_to_mono_16k`.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ParseError("not a RIFF/WAVE file", path=path)
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) != size:
            raise ParseError(
                f"chunk {chunk_id!r} claims {size} bytes, file has {len(body)}",
                path=path,
            )
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ParseError("missing fmt or data chunk", path=path)
    if len(fmt) < 16:
        raise ParseError("fmt chunk too short", path=path)
    tag, n_channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        if len(fmt) < 26:
            raise ParseError("extensible fmt chunk too short", path=path)
        (tag,) = struct.unpack("<H", fmt[24:26])
    if n_channels < 1:
        raise ParseError("zero channels", path=path)

    if tag == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float32)
    elif tag == _WAVE_FORMAT_PCM and bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float32) / 32768.0
    elif tag == _WAVE_FORMAT_PCM and bits == 32:
        samples = np.frombuffer(data, dtype="<i4").astype(np.float32) / 2147483648.0
    elif tag == _WAVE_FORMAT_PCM and bits == 24:
        b = np.frombuffer(data[: len(data) - len(data) % 3], dtype=np.uint8)
        b = b.reshape(-1, 3).astype(np.uint32)
        vals = (b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)).astype(np.int32)
        vals = (vals << 8) >> 8  # sign-extend from 24 bits
        samples = vals.astype(np.float32) / 8388608.0
    else:
        raise ParseError(
            f"unsupported encoding: format tag {tag}, {bits}-bit", path=path
        )
    n = samples.shape[0] - samples.shape[0] % n_channels
    samples = samples[:n]
    if n_channels > 1:
        samples = samples.reshape(-1, n_channels)
    return AudioClip(samples=samples, sample_rate=int(rate))


def write_wav(path, clip: AudioClip, encoding: str = "float32") -> None:
    """Write a WAV file; encodings: float32, pcm16, pcm24, pcm32."""
    samples = clip.samples
    n_channels = 1 if samples.ndim == 1 else samples.shape[1]
    flat = samples.reshape(-1)
    if encoding == "float32":
        tag, bits = _WAVE_FORMAT_IEEE_FLOAT, 32
        payload = flat.astype("<f4").tobytes()
    elif encoding == "pcm16":
        tag, bits = _WAVE_FORMAT_PCM, 16
        payload = np.clip(np.round(flat * 32768.0), -32768, 32767).astype("<i2").tobytes()
    elif encoding == "pcm32":
        tag, bits = _WAVE_FORMAT_PCM, 32
        payload = (
            np.clip(np.round(flat.astype(np.float64) * 2147483648.0), -(2**31), 2**31 - 1)
            .astype("<i4")
            .tobytes()
        )
    elif encoding == "pcm24":
        tag, bits = _WAVE_FORMAT_PCM, 24
        vals = np.clip(np.round(flat * 8388608.0), -(2**23), 2**23 - 1).astype(np.int32)
        u = vals.astype(np.uint32) & 0xFFFFFF
        b = np.empty((u.shape[0], 3), dtype=np.uint8)
        b[:, 0] = u & 0xFF
        b[:, 1] = (u >> 8) & 0xFF
        b[:, 2] = (u >> 16) & 0xFF
        payload = b.tobytes()
    else:
        raise ConfigInvalidError(f"unknown encoding {encoding!r}")
    block = n_channels * bits // 8
    fmt = struct.pack(
        "<HHIIHH", tag, n_channels, clip.sample_rate,
        clip.sample_rate * block, block, bits,
    )
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        body += b"\x00"
    with atomic_open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)
