import itertools
import math
import tracemalloc
from array import array

import pytest

from oracles import shuffle_by_next_below
from ramseykit.rng import (
    _BLOCK,
    MASK64,
    SplitMix64,
    _block_lanes,
    _unpack,
    check_seed,
    derive_seed,
    mix64,
)

GAMMA = 0x9E3779B97F4A7C15

# first outputs of the reference stream for seed 0, from the published
# generator description
SEED0_STREAM = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_reference_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SEED0_STREAM


def test_streams_are_deterministic():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_distinct_seeds_decorrelate():
    a = [SplitMix64(s).next_u64() for s in range(100)]
    assert len(set(a)) == 100


def test_outputs_stay_in_range():
    rng = SplitMix64(MASK64)
    for _ in range(200):
        v = rng.next_u64()
        assert 0 <= v <= MASK64


def test_bits_come_lsb_first():
    rng = SplitMix64(3)
    word = SplitMix64(3).next_u64()
    bits = [rng.next_bit() for _ in range(64)]
    assert bits == [(word >> i) & 1 for i in range(64)]
    # 65th bit starts the second word
    word2 = mix64((3 + 0x9E3779B97F4A7C15 * 2) & MASK64)
    assert rng.next_bit() == word2 & 1


def test_next_float_unit_interval():
    rng = SplitMix64(11)
    vals = [rng.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < sum(vals) / len(vals) < 0.6


def test_next_below_bounds_and_rough_balance():
    rng = SplitMix64(5)
    counts = [0] * 7
    for _ in range(7000):
        v = rng.next_below(7)
        counts[v] += 1
    assert min(counts) > 700  # each residue near 1000

    with pytest.raises(ValueError):
        rng.next_below(0)


def test_shuffle_matches_manual_fisher_yates():
    items = list(range(20))
    rng = SplitMix64(42)
    rng.shuffle(items)

    replay = list(range(20))
    coin = SplitMix64(42)
    for i in range(19, 0, -1):
        j = coin.next_below(i + 1)
        replay[i], replay[j] = replay[j], replay[i]
    assert items == replay
    assert sorted(items) == list(range(20))


# _BLOCK + 1 items take one full block of draws, _BLOCK + 2 add a one-word
# block, and C(51, 3) ends in a block of 344
@pytest.mark.parametrize("length", [
    0, 1, 2, 7, 100, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2,
    2 * _BLOCK + 1, math.comb(51, 3),
])
def test_shuffle_matches_next_below_oracle(length):
    for seed in (0, 1, 99, MASK64):
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        got = array("i", range(length))
        want = array("i", range(length))
        fast.shuffle(got)
        shuffle_by_next_below(slow, want)
        assert got == want, seed
        assert fast.state == slow.state, seed


def _unmix64(z: int) -> int:
    """Inverse of the SplitMix64 finalizer."""
    def unshift(y: int, s: int) -> int:
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64, 30)


@pytest.mark.parametrize("word", [MASK64, MASK64 - 4])
def test_shuffle_rejection_matches_next_below_oracle(word):
    # a seed whose first word is `word`: 2**64 % 7 == 2, so the first draw
    # (from range(7)) rejects MASK64 and keeps MASK64 - 4, both words in
    # the top range where the exact limit is computed
    seed = (_unmix64(word) - 0x9E3779B97F4A7C15) & MASK64
    assert SplitMix64(seed).next_u64() == word
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    got, want = list(range(7)), list(range(7))
    fast.shuffle(got)
    shuffle_by_next_below(slow, want)
    assert got == want and fast.state == slow.state


@pytest.mark.parametrize("length, word, rejected", [
    # m = 1022, 2**64 % m == 2: MASK64 is rejected, MASK64 - 4 kept
    (2 * _BLOCK + 2, MASK64, True),
    (2 * _BLOCK + 2, MASK64 - 4, False),
    # m = 1026, 2**64 % m == 1024: the least rejected word, the greatest kept
    (2 * _BLOCK + 6, 2**64 - 1024, True),
    (2 * _BLOCK + 6, 2**64 - 1025, False),
])
def test_shuffle_rejection_in_second_block_matches_next_below_oracle(length, word, rejected):
    # a seed whose word k, in the second block, is `word`, drawn from
    # range(m); each word lies in the top range, so that block takes the
    # per-draw path, and a rejection moves the last, short block a word on
    k = _BLOCK + 5
    m = length - k + 1
    assert (word >= 2**64 - 2**64 % m) == rejected
    seed = (_unmix64(word) - k * GAMMA) & MASK64
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(k)][-1] == word
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    got, want = array("i", range(length)), array("i", range(length))
    fast.shuffle(got)
    shuffle_by_next_below(slow, want)
    assert got == want and fast.state == slow.state


@pytest.mark.parametrize("seed", [0, 1, MASK64])
def test_block_words_are_the_next_u64_stream(seed):
    # pins the lane arithmetic and the byte order: three full blocks, then
    # a short one
    rng = SplitMix64(seed)
    state = seed
    for count in (_BLOCK, _BLOCK, _BLOCK, 3):
        words = _unpack(_block_lanes(state, count), count)
        assert list(words) == [rng.next_u64() for _ in range(count)]
        state = (state + count * GAMMA) & MASK64


def test_shuffle_memory_stays_within_a_block():
    # a block of 1,024 words is a 16 KiB integer; packing all C(99, 3)
    # draws into one would take 2.5 MB per temporary
    items = array("i", range(math.comb(99, 3)))
    tracemalloc.start()
    try:
        SplitMix64(0).shuffle(items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_shuffle_permutation_ignores_item_type():
    # the draws depend on the length alone: an array of ranks and the list
    # of tuples they rank are moved by the same permutation
    triples = list(itertools.combinations(range(12), 3))
    for seed in (0, 8, MASK64):
        shuffled = list(triples)
        ranks = array("i", range(len(triples)))
        SplitMix64(seed).shuffle(shuffled)
        SplitMix64(seed).shuffle(ranks)
        assert shuffled != triples
        assert [triples[r] for r in ranks] == shuffled


def test_derive_seed_separates_parts():
    base = 77
    seen = {derive_seed(base, n, i) for n in (16, 32, 64) for i in range(30)}
    assert len(seen) == 90
    assert derive_seed(base, 1, 2) != derive_seed(base, 2, 1)
    assert derive_seed(base) != base  # even no parts gets mixed
    assert all(0 <= s <= MASK64 for s in seen)


def test_check_seed_accepts_full_u64_range():
    assert check_seed(0) == 0
    assert check_seed(MASK64) == MASK64


@pytest.mark.parametrize("bad", [-1, MASK64 + 1, True, 1.0, "3"])
def test_check_seed_rejects(bad):
    with pytest.raises((ValueError, TypeError)):
        check_seed(bad)
