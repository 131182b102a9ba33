"""Seedable, portable pseudo-random generator (SplitMix64).

All stochastic code in this package draws from SplitMix64 so that identical
seeds reproduce identical results on any platform or reimplementation.

State transition and output, all arithmetic modulo 2**64:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Bounded draws use rejection sampling on the top of the 64-bit range, so
``randrange(n)`` is exactly uniform for every n.  ``mix_array`` and
``derive_seeds`` are the same functions on numpy ``uint64`` arrays, whose
arithmetic wraps modulo 2**64, for engines that advance many streams at once.
"""

from __future__ import annotations

from ._lazy import np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def mix_array(z: np.ndarray) -> np.ndarray:
    """``_mix`` of every entry of a uint64 array, computed in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self.seed = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


def derive_seed(seed: int, index: int) -> int:
    """Seed for the index-th substream: the index-th output of the root stream."""
    return _mix((seed + (index + 1) * _GAMMA) & _MASK64)


def derive_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """``derive_seed(seed, i)`` for i in range(start, stop), as a uint64 array."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    return mix_array(z)
