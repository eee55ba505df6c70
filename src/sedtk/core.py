"""Tensor substrate: (C, F, T) feature maps, domain-tagged batches held as
one (N, C, F, T) array, and the deterministic random source threaded
through every stochastic operation.

Storage is float32; all reductions elsewhere accumulate in float64.
"""

from __future__ import annotations

import os
import secrets
import shutil
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    EmptyBatchError,
    InvalidParameterError,
    ParseError,
    ShapeMismatchError,
)

STORAGE_DTYPE = np.float32

FMT_MAGIC = b"FMT1"


class DomainTag(IntEnum):
    DESED = 0
    MAESTRO = 1


@dataclass(frozen=True)
class FeatureMap:
    """Immutable float32 array indexed (channel, frequency, time); copies its input."""

    data: np.ndarray

    def __post_init__(self, copy: bool = True):
        arr = np.ascontiguousarray(self.data, dtype=STORAGE_DTYPE)
        if arr.ndim != 3:
            raise ShapeMismatchError(f"feature map must be 3-D (C,F,T), got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ShapeMismatchError(f"feature map dims must all be >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("feature map contains NaN or Inf")
        arr = arr.copy() if copy and arr is self.data else arr
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @classmethod
    def _own(cls, arr: np.ndarray) -> "FeatureMap":
        """Check a fresh array no one else holds and take it without a copy."""
        fmap = cls._view(arr)
        fmap.__post_init__(copy=False)
        return fmap

    @classmethod
    def _view(cls, arr: np.ndarray) -> "FeatureMap":
        """Wrap an already checked read-only (C, F, T) array as it is."""
        fmap = object.__new__(cls)
        object.__setattr__(fmap, "data", arr)
        return fmap

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]


@dataclass(frozen=True)
class Batch:
    """N domain-tagged (C, F, T) feature maps held as one array.

    ``data`` is a read-only, C-contiguous (N, C, F, T) float32 array,
    checked once here. A writeable input array is copied, so later writes
    to it cannot reach the batch; a read-only one is taken as it is.
    """

    data: np.ndarray
    tags: tuple[DomainTag, ...]

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=STORAGE_DTYPE)
        if arr.ndim != 4:
            raise ShapeMismatchError(f"batch must be 4-D (N,C,F,T), got ndim={arr.ndim}")
        if arr.shape[0] == 0:
            raise EmptyBatchError("batch must contain at least one item")
        if min(arr.shape) < 1:
            raise ShapeMismatchError(f"feature map dims must all be >= 1, got {arr.shape[1:]}")
        if arr.shape[0] != len(self.tags):
            raise ShapeMismatchError(f"{arr.shape[0]} maps but {len(self.tags)} domain tags")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("batch data contains NaN or Inf")
        if arr.flags.writeable:
            arr = arr.copy() if arr is self.data else arr
            arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "tags", tuple(DomainTag(t) for t in self.tags))

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        """Common (C, F, T) of every item."""
        return self.data.shape[1:]  # type: ignore[return-value]

    @cached_property
    def maps(self) -> tuple[FeatureMap, ...]:
        """One read-only (C, F, T) view of ``data`` per item; nothing is copied."""
        return tuple(FeatureMap._view(item) for item in self.data)


def make_batch(maps: Sequence[FeatureMap], tags: Sequence[DomainTag]) -> Batch:
    """Stack same-shape maps into a batch, preserving input order."""
    if len(maps) == 0:
        raise EmptyBatchError("cannot build a batch from zero maps")
    ref = maps[0].shape
    for i, m in enumerate(maps):
        if m.shape != ref:
            raise ShapeMismatchError(f"batch item {i} has shape {m.shape}, expected {ref}")
    data = np.stack([m.data for m in maps])
    data.flags.writeable = False
    return Batch(data, tags)


class RandomSource:
    """Counter-based (Philox) random stream with explicit seed threading.

    A source is single-owner: pass it explicitly, never share across
    concurrent consumers. Identical seed plus identical call sequence
    yields identical outputs.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def uniform(self, size=None):
        """Draw from U[0, 1); scalar float when size is None."""
        if size is None:
            return float(self._gen.random())
        return self._gen.random(size=size)

    def bernoulli(self, p: float) -> bool:
        if not 0.0 <= p <= 1.0:
            raise InvalidParameterError(f"probability must be in [0,1], got {p}")
        return bool(self._gen.random() < p)

    def gamma(self, shape: float, size=None):
        """Draw from the standard Gamma(shape, 1) distribution."""
        return self._gen.standard_gamma(shape, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def beta_sample(rng: RandomSource, alpha: float, size=None):
    """Draw from the symmetric Beta(alpha, alpha) distribution.

    For alpha <= 1 (the regime used here) this is Johnk's rejection
    algorithm in log space. Its acceptance rate falls fast as alpha grows,
    so alpha > 1 uses the ratio G1 / (G1 + G2) of two Gamma(alpha) draws,
    one batch of draws per call. Returns a scalar float when size is None,
    else an array of the given shape.
    """
    if not 0 < alpha < float("inf"):
        raise InvalidParameterError(f"Beta coefficient must be finite and > 0, got {alpha}")
    n = 1 if size is None else int(np.prod(size))
    if alpha > 1:
        g = rng.gamma(alpha, size=(2, n))
        out = g[0] / (g[0] + g[1])
        return float(out[0]) if size is None else out.reshape(size)
    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        m = n - filled
        u = rng.uniform(size=(2, m))
        with np.errstate(divide="ignore"):
            logx = np.log(u[0]) / alpha
            logy = np.log(u[1]) / alpha
        logsum = np.logaddexp(logx, logy)
        # reject x + y > 1; non-finite logsum means both uniforms were 0
        ok = (logsum <= 0.0) & np.isfinite(logsum)
        k = int(ok.sum())
        out[filled : filled + k] = np.exp(logx[ok] - logsum[ok])
        filled += k
    if size is None:
        return float(out[0])
    return out.reshape(size)


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``path`` for writing through a temporary file beside it.

    The temporary file replaces ``path``, taking its permission bits, when
    the block ends without an error; on an error it is removed and ``path``
    is left as it was. Text modes write UTF-8 with LF line ends. A path that
    exists but is not a regular file (``/dev/stdout``, a FIFO) is written in
    place.
    """
    target = os.path.realpath(path)
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, mode, **text) as fh:
            yield fh
        return
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        fh = open(tmp, mode.replace("w", "x"), **text)
    except OSError as exc:  # name the file asked for, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        with suppress(FileNotFoundError):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def write_fmt(batch: Batch, path) -> None:
    """Serialize a batch to the binary tensor format.

    Layout: magic "FMT1", u32-LE N,C,F,T, N*C*F*T little-endian float32 in
    (n,c,f,t) row-major order, then N domain-tag bytes (0=DESED, 1=MAESTRO).
    """
    with atomic_open(path, "wb") as fh:
        fh.write(FMT_MAGIC)
        fh.write(struct.pack("<4I", len(batch), *batch.shape))
        fh.write(batch.data.astype("<f4", copy=False))
        fh.write(bytes(batch.tags))


def read_fmt(path) -> Batch:
    """Read a batch from the binary tensor format written by ``write_fmt``."""
    raw = Path(path).read_bytes()
    if len(raw) < 20 or raw[:4] != FMT_MAGIC:
        raise ParseError("not a FMT1 tensor file", path=path)
    n, c, f, t = struct.unpack("<4I", raw[4:20])
    if n < 1 or c < 1 or f < 1 or t < 1:
        raise ParseError(f"degenerate dims N={n} C={c} F={f} T={t}", path=path)
    payload = n * c * f * t * 4
    expected = 20 + payload + n
    if len(raw) != expected:
        raise ParseError(
            f"file is {len(raw)} bytes, expected {expected} for dims "
            f"N={n} C={c} F={f} T={t}",
            path=path,
        )
    data = np.frombuffer(raw, dtype="<f4", count=n * c * f * t, offset=20)
    tags = np.frombuffer(raw, dtype=np.uint8, offset=20 + payload)
    if tags.max() > 1:
        raise ParseError("domain tag bytes must be 0 or 1", path=path)
    try:
        return Batch(data.reshape(n, c, f, t), tags.tolist())
    except InvalidParameterError:
        raise ParseError("tensor payload contains NaN or Inf", path=path) from None
