"""Deterministic numeric kernels shared by every other module.

Row-wise softmax and log-softmax, and a counter-based splittable random
number stream.  Everything here is pure given its inputs.  ``_raw_rows``
draws from several streams at once, one row per stream, with the bytes
each stream would draw on its own.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "softmax_rows",
    "log_softmax_rows",
    "RngStream",
    "rng_stream",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 1.0 / (1 << 53)
_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_11 = np.uint64(11)
_U64_27 = np.uint64(27)
_U64_30 = np.uint64(30)
_U64_31 = np.uint64(31)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax for an (n, N) logit matrix."""
    arr = np.asarray(logits, dtype=np.float64)
    shifted = arr - arr.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    arr = np.asarray(logits, dtype=np.float64)
    shifted = arr - arr.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# counter-based splittable RNG
# ---------------------------------------------------------------------------

def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, in place (wrapping
    arithmetic); returns z."""
    z ^= z >> _U64_30
    z *= _U64_MIX1
    z ^= z >> _U64_27
    z *= _U64_MIX2
    z ^= z >> _U64_31
    return z


def _mix64_int(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _raw_rows(streams, n: int) -> np.ndarray:
    """Each stream's next n raw draws, as one (len(streams), n) uint64
    array; advances every stream's counter by n.  A uniform row is
    ``(raw >> 11) * 2**-53`` and a permutation row is
    ``argsort(raw, axis=1, kind="stable")``, as each stream draws them."""
    state = np.array([np.arange(s._counter, s._counter + n, dtype=np.uint64)
                      for s in streams])
    state *= _U64_GOLDEN
    state += np.array([[s._key] for s in streams], dtype=np.uint64)
    for s in streams:
        s._counter += n
    return _mix64(state)


def _uniform_rows(streams, n: int) -> np.ndarray:
    """Each stream's next n uniform draws, one row per stream."""
    raw = _raw_rows(streams, n)
    raw >>= _U64_11
    out = raw.astype(np.float64)
    out *= _INV_2_53
    return out


def _permutation_rows(streams, n: int) -> np.ndarray:
    """A permutation of 0..n-1 from each stream, one row per stream."""
    return np.argsort(_raw_rows(streams, n), axis=1, kind="stable")


def _size_count(size) -> int:
    """Number of values an int or shape ``size`` asks for."""
    if isinstance(size, (tuple, list)):
        return int(math.prod(size))
    return int(size)


class RngStream:
    """Counter-based random stream keyed by (base_seed, stream_id).

    The i-th raw draw is ``mix64(key + i * golden)`` where ``key`` is a
    64-bit hash of the seed pair and ``mix64`` is the SplitMix64 finalizer.
    Identical (base_seed, stream_id) pairs therefore reproduce identical
    sequences byte-for-byte across processes and platforms, and draws
    vectorize over counter ranges.  Instances are not safe to share across
    concurrent tasks; derive one stream per task via :meth:`split`.
    """

    def __init__(self, base_seed: int, stream_id: int = 0):
        self.base_seed = int(base_seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = _mix64_int(self.base_seed + 0x632BE59BD9B4E019)
        key ^= _mix64_int((self.stream_id + 1) * _GOLDEN)
        self._key = _mix64_int(key)
        self._counter = 0

    def __repr__(self):
        return (f"RngStream(base_seed={self.base_seed}, "
                f"stream_id={self.stream_id}, counter={self._counter})")

    def split(self, k: int) -> "RngStream":
        """Derive an independent child stream; does not consume draws."""
        child_id = _mix64_int(self.stream_id * _GOLDEN + 2 * int(k) + 1)
        return RngStream(self.base_seed, child_id)

    def _raw(self, n: int) -> np.ndarray:
        return _raw_rows((self,), n)[0]

    def uniform(self, size: int | tuple | None = None):
        """Uniform float64 in [0, 1) with 53-bit resolution."""
        if size is None:
            return float(self._raw(1)[0] >> _U64_11) * _INV_2_53
        return _uniform_rows((self,), _size_count(size))[0].reshape(size)

    def normal(self, size: int | tuple | None = None):
        """Standard normals via Box-Muller (no rejection, so the draw count
        is a deterministic function of ``size``)."""
        scalar = size is None
        n = 1 if scalar else _size_count(size)
        pairs = (n + 1) // 2
        raw = self._raw(2 * pairs)
        raw >>= _U64_11
        u1 = (raw[:pairs].astype(np.float64) + 1.0) * _INV_2_53
        u2 = raw[pairs:].astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        if scalar:
            return float(z[0])
        return z.reshape(size)

    def integers(self, bound: int, size: int | tuple | None = None):
        """Integers in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        u = self.uniform(size if size is not None else 1)
        vals = np.minimum((np.asarray(u) * bound).astype(np.int64), bound - 1)
        if size is None:
            return int(vals[0])
        return vals

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of 0..n-1 (argsort of raw draws)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return _permutation_rows((self,), n)[0]

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from 0..n-1; k = n yields a full permutation."""
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        return self.permutation(n)[:k]


def rng_stream(base_seed: int, stream_id: int = 0) -> RngStream:
    """Construct an RngStream (functional alias for the constructor)."""
    return RngStream(base_seed, stream_id)
