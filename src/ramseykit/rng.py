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

The stream is counter-based (Salmon et al., 2011): the state only ever
adds the increment gamma, so the k-th word after state s (k = 1, 2, ...)
is ``mix64(s + k * gamma mod 2**64)`` and depends on no word before it.
``shuffle`` therefore computes up to ``_BLOCK`` words at once, each in
its own 128-bit lane of one integer (``_block_lanes``).  They are the
words successive ``next_u64`` calls return, and a block holding a word
that ``next_below`` might reject is drawn one word at a time, so the
permutation and the final state are those of the per-draw pass.
"""

from __future__ import annotations

import operator
import sys
from array import array
from collections.abc import MutableSequence

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# words per block of ``shuffle``: an integer of 16 KiB per temporary
_BLOCK = 1024
# the low halves of the 128-bit lanes among the 64-bit items of an integer's
# native-order bytes: item 2k on a little-endian host, counted from the end
# on a big-endian one
_LOW = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _lanes(words: array) -> int:
    """Pack 64-bit words into one integer, word k in 128-bit lane k."""
    halves = array("Q", bytes(16 * len(words)))
    halves[_LOW] = words
    return int.from_bytes(halves.tobytes(), sys.byteorder)


_ONE = _lanes(array("Q", [1]) * _BLOCK)
_MASK = _lanes(array("Q", [MASK64]) * _BLOCK)
# bit 64 of every lane: set in a lane whose low half overflowed
_CARRY = _ONE << 64
# lane k holds (k + 1) * gamma, below 2**75: no carry between lanes
_GAMMA_RAMP = _GAMMA * _lanes(array("Q", range(1, _BLOCK + 1)))


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


def _block_lanes(state: int, count: int) -> int:
    """The next ``count`` (at most ``_BLOCK``) words after ``state``, word k
    in 128-bit lane k of one integer.

    Lane k starts as s + (k + 1) * gamma and goes through the finalizer
    with the whole integer at once.  Masking every lane to its low 64
    bits after each step keeps the lanes apart: a product of two 64-bit
    values fits its 128-bit lane, and a right shift spills only into the
    high half of the lane below, which the mask clears.
    """
    keep = (1 << 128 * count) - 1
    z = (state * (_ONE & keep) + (_GAMMA_RAMP & keep)) & _MASK
    z = (z ^ z >> 30) & _MASK
    z = z * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ z >> 27) & _MASK
    z = z * 0x94D049BB133111EB & _MASK
    return (z ^ z >> 31) & _MASK


def _unpack(z: int, count: int) -> array:
    """The 64-bit words in the low halves of z's first ``count`` lanes."""
    return array("Q", z.to_bytes(16 * count, sys.byteorder))[_LOW]


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
        Each draw is ``next_below(i + 1)``.  The words come a block at a
        time from ``_block_lanes``, the same words ``next_u64`` gives.  A
        word below 2**64 - (i + 1) is always under the rejection limit,
        so when every word of a block is below 2**64 minus the block's
        largest modulus m, no draw rejects and the block's indices j are
        reduced in one ``map``.  That test reads the packed lanes without
        unpacking them: adding m to every lane carries into bit 64 of a
        lane exactly when its word is at least 2**64 - m.  Otherwise (a
        chance of about ``_BLOCK`` * len(items) / 2**64) the block's
        draws are made one at a time by ``next_below``, with the exact
        rejection limit.
        """
        state = self.state
        hi = len(items) - 1
        while hi > 0:
            count = min(hi, _BLOCK)
            stop = hi - count
            z = _block_lanes(state, count)
            if not (z + (hi + 1) * (_ONE & (1 << 128 * count) - 1)) & _CARRY:
                words = _unpack(z, count)
                drawn = map(operator.mod, words, range(hi + 1, stop + 1, -1))
                for i, j in zip(range(hi, stop, -1), drawn):
                    items[i], items[j] = items[j], items[i]
                state = (state + count * _GAMMA) & MASK64
            else:
                self.state = state
                for i in range(hi, stop, -1):
                    j = self.next_below(i + 1)
                    items[i], items[j] = items[j], items[i]
                state = self.state
            hi = stop
        self.state = state
