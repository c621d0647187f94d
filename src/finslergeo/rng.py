"""Portable deterministic RNG used by the CLI and verification sweeps.

SplitMix64 (Steele/Lea/Flood 2014) with doubles built from the top 53 bits.
The generator is fully specified here so residual tables are reproducible
bit-for-bit across platforms, independent of numpy's generator policies.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def vector(self, n: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)])

    def direction(self, n: int, min_norm: float = 0.3) -> np.ndarray:
        """Nonzero direction drawn from the cube, rejected when too short."""
        while True:
            v = self.vector(n)
            if np.linalg.norm(v) >= min_norm:
                return v
