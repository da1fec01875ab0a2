import hashlib
import itertools
import math

import pytest

from oracles import brute_ideals, brute_matching_size, brute_width, from_strict_pairs
from ramseykit.poset import (
    IdealCapExceeded,
    Poset,
    SymbolicTower,
    antichain_witness,
    build_J,
    ideal_lattice,
    ideals,
    j4_log2_lower_bound,
    max_antichain,
    tower,
    two_chains,
)
from ramseykit.rng import SplitMix64


def _random_poset(p, seed, eighths=3):
    rng = SplitMix64(seed)
    pairs = [
        (a, b)
        for a in range(p)
        for b in range(a + 1, p)
        if rng.next_below(8) < eighths
    ]
    return from_strict_pairs(p, pairs)


# ---------------------------------------------------------------------------
# the Poset type itself


def test_rejects_non_transitive_rows():
    # 0 < 1 < 2 without 0 < 2
    rows = [0b001, 0b011, 0b110]
    with pytest.raises(ValueError):
        Poset(rows)


def test_rejects_missing_reflexivity():
    with pytest.raises(ValueError):
        Poset([0b00, 0b11])


def test_from_strict_pairs_closes_transitively():
    P = from_strict_pairs(4, [(0, 1), (1, 2), (2, 3)])
    assert P.leq(0, 3)
    assert P.leq(0, 0)
    assert not P.leq(3, 0)


def test_from_strict_pairs_rejects_cycles():
    with pytest.raises(ValueError):
        from_strict_pairs(3, [(0, 1), (1, 2), (2, 0)])


def test_two_chains_shape():
    P = two_chains(2, 3)
    assert P.p == 5
    assert P.leq(0, 1) and not P.leq(1, 2)
    assert P.leq(2, 4) and not P.leq(0, 4)


# ---------------------------------------------------------------------------
# ideal enumeration


def test_ideals_match_brute():
    for seed in range(60):
        p = 1 + seed % 10
        P = _random_poset(p, seed)
        assert ideals(P) == brute_ideals(P), seed


def test_ideal_count_of_two_chains_is_a_grid():
    for a, b in [(1, 1), (2, 3), (4, 2), (1, 6)]:
        count = len(ideals(two_chains(a, b)))
        assert count == (a + 1) * (b + 1), (a, b)


def test_ideals_are_ascending_masks():
    P = _random_poset(8, 123)
    order = ideals(P)
    assert order == sorted(order)
    assert order[0] == 0 and order[-1] == (1 << 8) - 1


def test_ideal_cap_enforced():
    P = _random_poset(14, 5, eighths=0)  # antichain: 2^14 ideals
    with pytest.raises(IdealCapExceeded) as info:
        ideals(P, cap=1000)
    assert info.value.cap == 1000

    lattice_ok = ideals(P, cap=1 << 14)
    assert len(lattice_ok) == 1 << 14


def test_ideal_lattice_orders_by_containment():
    P = _random_poset(6, 9)
    masks = ideals(P)
    L = ideal_lattice(P)
    assert L.p == len(masks)
    for i, j in itertools.combinations(range(L.p), 2):
        assert L.leq(i, j) == (masks[i] & ~masks[j] == 0)


# ---------------------------------------------------------------------------
# the iterated construction


def test_level_two_size_formula():
    for t in range(5, 17):
        for k in range(4, t):
            assert build_J(2, t, k).p == 2 * (t - k + 1), (t, k)


def test_level_three_reference_point():
    assert build_J(3, 10, 3).p == 45


def test_build_J_validation():
    with pytest.raises(ValueError):
        build_J(0, 10, 3)
    with pytest.raises(ValueError):
        build_J(2, 3, 3)
    for k in (2, 0, -3):
        with pytest.raises(ValueError, match=f"uniformity must be at least 3, got {k}"):
            build_J(3, 10, k)


# ---------------------------------------------------------------------------
# width


def test_width_matches_brute():
    for seed in range(40):
        p = 1 + seed % 9
        P = _random_poset(p, seed + 500)
        assert max_antichain(P) == brute_width(P), seed


def test_antichain_witness_is_maximum_and_incomparable():
    for seed in range(40):
        p = 1 + seed % 9
        P = _random_poset(p, seed + 900)
        wit = antichain_witness(P)
        assert len(wit) == max_antichain(P)
        for a, b in itertools.combinations(wit, 2):
            assert not P.less(a, b) and not P.less(b, a)


def test_width_matches_matching_oracle_on_levels():
    # the level-three posets the width certificates are computed on
    cases = [(t, 3) for t in range(8, 27, 3)] + [(t, k) for t in (9, 12, 16) for k in (t - 4, t - 1)]
    for t, k in cases:
        P = build_J(3, t, k)
        assert max_antichain(P) == P.p - brute_matching_size(P), (t, k)


def test_width_matches_matching_oracle_on_random_posets():
    for seed in range(30):
        p = 20 + 2 * seed
        P = _random_poset(p, seed + 1300, eighths=1 + seed % 3)
        assert max_antichain(P) == P.p - brute_matching_size(P), seed
        wit = antichain_witness(P)
        assert len(wit) == max_antichain(P), seed
        for a, b in itertools.combinations(wit, 2):
            assert not P.less(a, b) and not P.less(b, a), seed


def test_widths_and_witnesses_on_benchmark_levels_frozen():
    # every level-three poset the exact-certify workload builds: k = 3 for
    # t = 8..26 and the t = 5..16 grid of larger k
    cases = [(t, 3) for t in range(8, 27)]
    cases += [(t, k) for t in range(5, 17) for k in range(max(4, t - 4), t)]
    h = hashlib.sha256()
    for t, k in cases:
        P = build_J(3, t, k)
        wit = ",".join(map(str, antichain_witness(P)))
        h.update(f"{t},{k}:{max_antichain(P)}:{wit}\n".encode())
    assert h.hexdigest() == "c1aa063741b69e9b038eb014820806b7af8729b1d0c5e0f116ac7e4cd7c14501"


def test_antichain_witness_frozen():
    # the witness is the same for every maximum matching, so it is frozen
    assert antichain_witness(build_J(3, 10, 3)) == (14, 18, 23, 29, 36)
    assert antichain_witness(build_J(3, 9, 4)) == (9, 12, 16, 21)


def test_width_edge_cases():
    assert max_antichain(from_strict_pairs(0, [])) == 0
    assert antichain_witness(from_strict_pairs(0, [])) == ()
    chain = from_strict_pairs(5, [(i, i + 1) for i in range(4)])
    assert max_antichain(chain) == 1
    assert len(antichain_witness(chain)) == 1


def test_level_three_width_grows():
    values = [max_antichain(build_J(3, t, 3)) for t in (8, 12, 16, 20)]
    assert values == sorted(values)
    for t, w in zip((8, 12, 16, 20), values):
        assert w >= (t - 3) // 2


def test_j4_exponent_equals_level3_width():
    for t, k in [(8, 4), (10, 6), (12, 8)]:
        assert j4_log2_lower_bound(t, k) == max_antichain(build_J(3, t, k))


# ---------------------------------------------------------------------------
# towers


def test_tower_small_exact():
    # height 1 is the base itself, each further level adds one 2^
    assert tower(1, 3) == 3
    assert tower(2, 3) == 8
    assert tower(3, 2) == 16
    assert tower(4, 1) == 16
    assert tower(2, 0) == 1


def test_tower_accepts_integral_floats():
    assert tower(2, 3.0) == tower(2, 3)
    with pytest.raises(ValueError):
        tower(1, 2.5)
    with pytest.raises(ValueError):
        tower(0, 3)
    with pytest.raises(ValueError):
        tower(1, -1)


def test_tower_goes_symbolic_past_the_cap():
    v = tower(4, 100)  # 2^2^2^100 cannot be materialized
    assert isinstance(v, SymbolicTower)
    assert v > 10**300
    assert tower(2, 20) == 2 ** 20  # still exact: fits the cap
    assert tower(3, 19) == 2 ** (2 ** 19)


def test_symbolic_tower_ordering():
    a = tower(4, 64)
    b = tower(5, 64)
    assert a < b
    assert not (a < a)
    assert a == tower(4, 64)
    small = tower(1, 5)
    assert isinstance(small, int) and small < a
    assert b > a and b >= a and a <= b and a >= a and a <= a
    assert not (a > b) and not (a >= b) and not (b <= a) and not (a > a)
    # an evaluated value on either side: the tower is always the larger
    for x in (small, 10**300, 2.5):
        assert a > x and a >= x and x < a and x <= a and a != x
        assert not (a < x) and not (a <= x) and not (x > a) and not (x >= a)
    with pytest.raises(TypeError):
        a < "x"
    with pytest.raises(TypeError):
        "x" > a


def test_tower_monotone_in_base():
    assert tower(3, 70) < tower(3, 80)
