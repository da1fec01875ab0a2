"""Reproducible randomness built on SplitMix64.

Every randomized routine in this package draws from the SplitMix64 stream
defined here, so identical seeds give bit-identical results on every
platform and Python build.  The stream contract:

* ``next_u64`` returns the standard SplitMix64 output sequence for the
  seed (Steele/Lea/Flood constants, 64-bit wrapping arithmetic).
* fair bits are taken from successive ``next_u64`` words, least
  significant bit first, 64 bits per word;
* ``next_below(n)`` draws whole words and rejects values >= the largest
  multiple of ``n`` below 2**64, then reduces mod ``n`` (unbiased);
* ``shuffle`` is a Fisher-Yates pass from the last index down to 1,
  swapping position ``i`` with ``next_below(i + 1)``.
"""

from __future__ import annotations

from collections.abc import MutableSequence

MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def check_seed(seed: int) -> int:
    """Validate a seed as a 64-bit unsigned integer and return it."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed {seed} outside the unsigned 64-bit range")
    return seed


def derive_seed(base: int, *parts: int) -> int:
    """Derive a child seed from a base seed and integer coordinates.

    Folds each part into the state with the SplitMix64 increment and
    re-avalanches, so (base, n, index) cells get independent streams and
    the derivation is order-sensitive.
    """
    z = mix64(base)
    for p in parts:
        z = mix64((z ^ mix64((p * _GAMMA) & MASK64)) + _GAMMA)
    return z


class SplitMix64:
    """The package-wide deterministic 64-bit generator."""

    __slots__ = ("state", "_bit_buffer", "_bits_left")

    def __init__(self, seed: int):
        self.state = seed & MASK64
        self._bit_buffer = 0
        self._bits_left = 0

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        return mix64(self.state)

    def next_bit(self) -> int:
        """One fair coin flip; words are consumed LSB-first."""
        if self._bits_left == 0:
            self._bit_buffer = self.next_u64()
            self._bits_left = 64
        bit = self._bit_buffer & 1
        self._bit_buffer >>= 1
        self._bits_left -= 1
        return bit

    def next_float(self) -> float:
        """Uniform in [0, 1), 64-bit resolution."""
        return self.next_u64() / 2.0**64

    def next_below(self, n: int) -> int:
        """Unbiased draw from range(n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle with the documented index order.

        The draws depend only on len(items), so any mutable sequence of
        the same length (a list, an ``array``) gets the same permutation.
        Each draw is ``next_below(i + 1)`` with the generator step and the
        finalizer inlined: a word below 2**64 - (i + 1) is always under the
        rejection limit, so the exact limit is computed only above it.
        """
        state = self.state
        for i in range(len(items) - 1, 0, -1):
            m = i + 1
            while True:
                state = (state + _GAMMA) & MASK64
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
                z ^= z >> 31
                if z < _TWO64 - m or z < _TWO64 - _TWO64 % m:
                    break
            j = z % m
            items[i], items[j] = items[j], items[i]
        self.state = state
