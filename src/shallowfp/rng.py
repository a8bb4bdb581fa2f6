"""Fixed 64-bit PRNG used by every seeded generator in the package.

This is SplitMix64 (Steele, Lea, Flood 2014) with the standard constants

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

all arithmetic modulo 2^64.  The state starts at the seed reduced mod
2^64, so any integer is a seed, and seeds congruent mod 2^64 (-1 and
2^64 - 1) give the same stream.  Bounded draws reduce the raw output with a
plain modulo; the bias is irrelevant at desk scale and the reduction is
trivially portable across languages, which keeps seeded experiments
reproducible everywhere.
"""
from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator with a tiny, documented state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw from [0, n) by modulo reduction."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def in_range(self, lo: int, hi: int) -> int:
        """Draw from [lo, hi)."""
        return lo + self.below(hi - lo)
