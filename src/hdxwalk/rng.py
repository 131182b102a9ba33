"""Seedable, portable pseudo-random generator (SplitMix64).

All stochastic code in this package draws from SplitMix64 so that identical
seeds reproduce identical results on any platform or reimplementation.

State transition and output, all arithmetic modulo 2**64:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

``mix_array`` and ``derive_seeds`` are the output function and the
substream seeds on numpy ``uint64`` arrays, whose arithmetic wraps modulo
2**64, for engines that advance many streams at once.  Their scalar
references, ``derive_seed`` and the rejection-sampled ``randrange``, are in
``tests/scalar_walk.py``.
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

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)


def derive_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """Seeds of substreams start..stop-1 of the root stream ``SplitMix64(seed)``,
    as a uint64 array: substream i is seeded with output i of the root, counting from 0."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    return mix_array(z)
