"""Reproducible counter-based pseudorandom numbers.

Every stochastic routine in the package draws from :class:`CounterRng`, a
64-bit counter hashed through the SplitMix64 output function.  Draw ``i`` of
the stream with seed ``s`` is ``mix64((s + (i + 1) * GAMMA) mod 2**64)``, so
a (seed, counter) pair pins the entire sequence on every platform: there is
no hidden global state and no dependence on library versions.

Uniform doubles keep the top 53 bits and live strictly inside (0, 1):
``u = ((x >> 11) + 0.5) * 2**-53``.  Normal variates apply Acklam's rational
approximation of the inverse normal CDF (|relative error| < 1.15e-9) to those
uniforms.  Integer draws below a bound use rejection sampling, so they are
exactly unbiased; subsets come from a partial Fisher-Yates shuffle.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer (pure-python reference)."""
    v = value & _MASK64
    v = ((v ^ (v >> 30)) * _MIX_A) & _MASK64
    v = ((v ^ (v >> 27)) * _MIX_B) & _MASK64
    return v ^ (v >> 31)


def _mix64_array(v: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps modulo 2**64, matching the scalar path
    with np.errstate(over="ignore"):
        v = (v ^ (v >> np.uint64(30))) * np.uint64(_MIX_A)
        v = (v ^ (v >> np.uint64(27))) * np.uint64(_MIX_B)
        return v ^ (v >> np.uint64(31))


# Acklam's coefficients for the inverse normal CDF rational approximation.
_ACK_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ACK_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ACK_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ACK_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_ACK_P_LOW = 0.02425


def inverse_normal_cdf(p):
    """Quantile function of the standard normal for p in (0, 1).

    Accepts a float or an ndarray.  Rational approximation due to Acklam;
    worst-case relative error about 1.15e-9, ample for simulation draws.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise InvalidInputError("inverse_normal_cdf requires p strictly inside (0, 1)")
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D

    out = np.empty_like(arr)
    low = arr < _ACK_P_LOW
    high = arr > 1.0 - _ACK_P_LOW
    mid = ~(low | high)

    if np.any(mid):
        q = arr[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        out[mid] = q * num / den
    if np.any(low):
        q = np.sqrt(-2.0 * np.log(arr[low]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        out[low] = num / den
    if np.any(high):
        q = np.sqrt(-2.0 * np.log1p(-arr[high]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        out[high] = -num / den

    if out.ndim == 0:
        return float(out)
    return out


class CounterRng:
    """Deterministic counter-based generator (SplitMix64 output function)."""

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise InvalidInputError("seed must be an integer")
        self._seed = int(seed) & _MASK64
        self._counter = 0

    @property
    def counter(self) -> int:
        """Number of 64-bit words consumed so far."""
        return self._counter

    def _word(self, index: int) -> int:
        return mix64((self._seed + ((index + 1) * _GAMMA)) & _MASK64)

    def u64(self) -> int:
        """Next raw 64-bit word as a python int."""
        v = self._word(self._counter)
        self._counter += 1
        return v

    def u64_array(self, n: int) -> np.ndarray:
        """Next n raw words as a uint64 array (vectorized, same stream)."""
        if n < 0:
            raise InvalidInputError("n must be non-negative")
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            state = np.uint64(self._seed) + idx * np.uint64(_GAMMA)
        self._counter += n
        return _mix64_array(state)

    def uniform(self, n: int) -> np.ndarray:
        """n uniform draws in the open interval (0, 1)."""
        words = self.u64_array(n)
        return ((words >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53

    def normal(self, n: int, mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        """n normal draws via the inverse-CDF applied to uniform(n)."""
        if sd <= 0.0:
            raise InvalidInputError("sd must be positive")
        z = inverse_normal_cdf(self.uniform(n))
        return mean + sd * z

    def randbelow(self, bound: int) -> int:
        """Unbiased integer in [0, bound) by rejection on the raw stream."""
        if bound <= 0:
            raise InvalidInputError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.u64()
            if v < limit:
                return v % bound

    def randbelow_many(self, bounds) -> np.ndarray:
        """randbelow(b) for each b of an integer array in turn, as one uint64 array:
        one word per bound at once, or, if any would be rejected, rewind and loop."""
        b = np.asarray(bounds)
        if b.size and (b.dtype.kind not in "iu" or not np.all(b > 0)):
            raise InvalidInputError("bounds must be positive integers")
        b = b.astype(np.uint64).ravel()
        start = self._counter
        words = self.u64_array(b.size)
        # randbelow rejects v >= 2**64 - (2**64 % b); 2**64 % b == (2**64 - b) % b
        rem = (np.uint64(0) - b) % b
        if np.any((rem > 0) & (words >= np.uint64(0) - rem)):
            self._counter = start
            return np.array([self.randbelow(v) for v in b.tolist()], dtype=np.uint64)
        return words % b

    def sample_indices(self, n_pop: int, k: int) -> np.ndarray:
        """k distinct indices from range(n_pop), partial Fisher-Yates order."""
        if k < 0 or k > n_pop:
            raise InvalidInputError(
                f"cannot sample {k} distinct indices from a population of {n_pop}"
            )
        arr = np.arange(n_pop, dtype=np.int64)
        draws = self.randbelow_many(np.arange(n_pop, n_pop - k, -1, dtype=np.int64))
        for i, d in enumerate(draws.tolist()):
            arr[i], arr[i + d] = arr[i + d], arr[i]
        return arr[:k].copy()
