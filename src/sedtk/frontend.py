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
from typing import TYPE_CHECKING

import numpy as np

from .core import FeatureMap, atomic_open
from .errors import ConfigInvalidError, EmptyAudioError, ParseError

# scipy is imported inside the functions that use it: loading it costs more
# than the rest of sedtk, and no subcommand but `features` needs it.
if TYPE_CHECKING:
    from scipy.sparse import csr_array

# Slaney mel scale: linear below 1 kHz, logarithmic above.
_MEL_HZ_PER_STEP = 200.0 / 3.0
_MEL_LOG_HZ = 1000.0
_MEL_LOG_MEL = _MEL_LOG_HZ / _MEL_HZ_PER_STEP
_MEL_LOG_STEP = math.log(6.4) / 27.0

_BLOCK_BYTES = 1 << 20  # of float64 windowed frames per log_mel block: 64 frames at n_fft=2048
# The highest rate resample_to_mono_16k takes.
_MAX_SAMPLE_RATE = 768_000
# The largest term of the reduced ratio 16000 / rate that resample_to_mono_16k
# takes, as 11025 Hz needs (640 / 441): its FIR has 20 taps per unit of the term.
_MAX_RATIO_TERM = 640


@dataclass(frozen=True)
class AudioClip:
    """Waveform samples (1-D mono or (n, channels)) at a given rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self, checked: bool = False):
        arr = np.asarray(self.samples, dtype=np.float32)
        if arr.ndim not in (1, 2):
            raise ConfigInvalidError(f"samples must be 1-D or 2-D, got ndim={arr.ndim}")
        if not checked and not np.all(np.isfinite(arr)):
            raise ConfigInvalidError("samples contain NaN or Inf")
        if not self.sample_rate > 0:
            raise ConfigInvalidError(f"sample_rate must be > 0, got {self.sample_rate}")
        object.__setattr__(self, "samples", arr)

    @classmethod
    def _of_checked(cls, samples: np.ndarray, sample_rate: int) -> "AudioClip":
        """Clip of samples finite by construction (decoded PCM), without the per-sample pass."""
        clip = object.__new__(cls)
        vars(clip).update(samples=samples, sample_rate=sample_rate)
        clip.__post_init__(checked=True)
        return clip


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
    from scipy.signal import get_window
    from scipy.sparse import csr_array

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
    from scipy.signal import firwin

    rate = max(up, down)
    taps = firwin(20 * rate + 1, 1.0 / rate, window=("kaiser", 5.0))
    taps.flags.writeable = False
    return taps


def _downmix(samples: np.ndarray) -> np.ndarray:
    """Float32 channel mean of (n, channels) samples, accumulated in float64.

    Below 8 channels the columns are added in channel order onto +0.0 and
    the sum divided by the count: ``mean(axis=1, dtype=np.float64)`` adds a
    row's values in the same order, so the bits are the same, without a
    reduction per row. From 8 channels numpy's pairwise sum adds a row in
    eight partial sums, so its mean is used.
    """
    n_channels = samples.shape[1]
    if n_channels >= 8:
        return samples.mean(axis=1, dtype=np.float64).astype(np.float32)
    acc = np.zeros(samples.shape[0])
    for column in samples.T:
        acc += column
    acc /= n_channels
    return acc.astype(np.float32)


def resample_to_mono_16k(clip: AudioClip) -> AudioClip:
    """Average channels to mono, then band-limited polyphase resample to 16 kHz."""
    if clip.sample_rate > _MAX_SAMPLE_RATE:
        raise ConfigInvalidError(f"sample_rate {clip.sample_rate} Hz is above {_MAX_SAMPLE_RATE} Hz")
    if clip.samples.shape[0] == 0:
        raise EmptyAudioError("clip has zero samples")
    g = math.gcd(int(clip.sample_rate), 16000)
    up, down = 16000 // g, int(clip.sample_rate) // g
    if max(up, down) > _MAX_RATIO_TERM:
        raise ConfigInvalidError(
            f"sample_rate {clip.sample_rate} Hz resamples to 16 kHz as {up}/{down}, "
            f"a ratio term above {_MAX_RATIO_TERM}"
        )
    mono = clip.samples
    if mono.ndim == 2:
        mono = _downmix(mono)
    if clip.sample_rate == 16000:
        return AudioClip(samples=mono, sample_rate=16000)
    from scipy.signal import resample_poly

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
    n = clip.samples.shape[0]
    length = max(n, int(round(cfg.pad_to_seconds * cfg.sample_rate)))
    if length < cfg.n_fft:
        raise ConfigInvalidError(
            f"padded clip ({length} samples) shorter than n_fft={cfg.n_fft}"
        )

    # One float64 buffer: the clip, zeros up to `length`, and `pad` samples
    # reflected about each end (length - 1 >= pad, so one reflection reaches).
    pad = cfg.n_fft // 2
    y = np.zeros(length + 2 * pad)
    y[pad : pad + n] = clip.samples
    y[:pad] = y[2 * pad : pad : -1]
    y[pad + length :] = y[pad + length - 2 : length - 2 : -1]
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

# Each encoding's format tag and bits per sample. A PCM sample is a signed
# integer of that many bits, scaled by 2**(bits - 1).
_ENCODINGS = {
    "float32": (_WAVE_FORMAT_IEEE_FLOAT, 32),
    "pcm16": (_WAVE_FORMAT_PCM, 16),
    "pcm24": (_WAVE_FORMAT_PCM, 24),
    "pcm32": (_WAVE_FORMAT_PCM, 32),
}


def read_wav(path) -> AudioClip:
    """Read a RIFF/WAVE file into float samples in [-1, 1].

    Supports PCM 16/24/32-bit and IEEE float32, little-endian, including
    the extensible-format wrapper. Bytes after the last whole sample frame
    are dropped. Multi-channel data comes back as (n, channels); average to
    mono via :func:`resample_to_mono_16k`.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ParseError("not a RIFF/WAVE file", path=path)
    raw = memoryview(raw)  # chunk bodies are views of the file's bytes, not copies
    pos = 12
    chunks = {}
    while pos + 8 <= len(raw):
        chunk_id, size = struct.unpack("<4sI", raw[pos : pos + 8])
        body = chunks[chunk_id] = raw[pos + 8 : pos + 8 + size]
        if len(body) != size:
            raise ParseError(
                f"chunk {chunk_id!r} claims {size} bytes, file has {len(body)}",
                path=path,
            )
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    fmt, data = chunks.get(b"fmt "), chunks.get(b"data")
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
    if (tag, bits) not in _ENCODINGS.values():
        raise ParseError(f"unsupported encoding: format tag {tag}, {bits}-bit", path=path)

    n = len(data) // (n_channels * bits // 8) * n_channels
    if tag == _WAVE_FORMAT_IEEE_FLOAT:
        samples = np.frombuffer(data, dtype="<f4", count=n)
    else:
        if bits == 24:
            lo_hi = np.frombuffer(data, dtype=[("lo", "u1"), ("hi", "<i2")], count=n)
            ints = lo_hi["hi"].astype(np.int32)
            ints *= 256
            ints += lo_hi["lo"]
        else:
            ints = np.frombuffer(data, dtype=f"<i{bits // 8}", count=n)
        samples = ints.astype(np.float32)
        samples /= 2.0 ** (bits - 1)
    if n_channels > 1:
        samples = samples.reshape(-1, n_channels)
    clip = AudioClip if tag == _WAVE_FORMAT_IEEE_FLOAT else AudioClip._of_checked  # PCM is finite
    return clip(samples, int(rate))


def write_wav(path, clip: AudioClip, encoding: str = "float32") -> None:
    """Write a WAV file; encodings: float32, pcm16, pcm24, pcm32."""
    if encoding not in _ENCODINGS:
        raise ConfigInvalidError(f"unknown encoding {encoding!r}")
    tag, bits = _ENCODINGS[encoding]
    samples = clip.samples
    n_channels = 1 if samples.ndim == 1 else samples.shape[1]
    flat = samples.reshape(-1)
    if tag == _WAVE_FORMAT_IEEE_FLOAT:
        payload = flat.astype("<f4").tobytes()
    else:
        full = 2.0 ** (bits - 1)
        ints = np.multiply(flat, full, dtype=np.float64)
        np.clip(np.round(ints, out=ints), -full, full - 1, out=ints)
        # Each little-endian int32 keeps its low bits // 8 bytes.
        low = np.dtype({"names": ["low"], "formats": [f"V{bits // 8}"], "itemsize": 4})
        payload = ints.astype("<i4").view(low)["low"].tobytes()
    block = n_channels * bits // 8
    pad = b"\x00" * (len(payload) & 1)  # chunks are word-aligned
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload) + len(pad), b"WAVE",
        b"fmt ", 16, tag, n_channels, clip.sample_rate, clip.sample_rate * block, block, bits,
        b"data", len(payload),
    )
    with atomic_open(path, "wb") as fh:
        fh.writelines((header, payload, pad))
