"""Acceptance gate: the ten headline checks, one printed verdict line each.

Each test prints its verdict through capsys.disabled() so the line shows
up even under captured output, then asserts.  Numeric fixtures (frozen
constants, exact worst cases, size floors) were pinned from independent
runs of the stated formulas and stay byte-stable under the default
seeding scheme.
"""

import hashlib
import itertools
import math
import time

import pytest

from ramseykit.construction import (
    alpha_experiment,
    alpha_rows_to_csv,
    build_h3,
    build_hk,
    greedy_steiner_packing,
    mod_spectrum_report,
    sample_graph,
    union_bound_threshold,
)
from ramseykit.game import (
    all_blue,
    all_red,
    exhaustive_verify,
    greedy_saver,
    random_painter,
    run_game,
    upper_bound_estimate,
)
from ramseykit.homomorphism import exists_homomorphism, validate_homomorphism
from ramseykit.hypergraph import (
    Hypergraph,
    complete,
    contains_tight_cycle,
    tight_cycle,
)
from ramseykit.poset import build_J, ideals, max_antichain
from ramseykit.rng import derive_seed

# frozen constants, pinned once from reference runs
RATIO_CEILING = 2.75          # max alpha / log2(n) over the standard grid
THRESHOLD_BAND = (14.0, 28.0)  # t(n)/log2(n) stays in this x2 band
STEINER_BEST = {15: 33, 21: 66, 33: 170, 51: 411, 99: 1580}
BOUND_COEFF = 3.2             # log2 certificate <= this * t^2 * log2(t)
# SHA-256 of alpha_rows_to_csv over the standard grid (n = 16, 32, 64, 30
# seeds each, base seed 0), the README's alpha example, frozen from the
# bottom-up clique-cover search
ALPHA_GRID_CSV_SHA256 = "971b0799e66c857953e48f9c7b3592d85f307d6db2e59ed360687f2588ee2d29"

T3_WORST = (4, 5, 5)
T3_BRANCHES = 6
T4_WORST = (9, 11, 17)
T4_BRANCHES = 1542


def _verdict(capsys, num, slug, ok, started, detail=""):
    elapsed = time.time() - started
    line = f"ACCEPTANCE {num:2d} {slug}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    if detail:
        line += f" {detail}"
    with capsys.disabled():
        print(line)
    return ok


def _within_bounds(stats, t):
    ell = stats.vertices_used
    return (
        ell <= 2 * math.comb(t, 2) + 1
        and stats.red_edges <= 3 * ell + 1
        and stats.total_edges <= (t + 1) * ell + 2
    )


def test_criterion_01_three_uniform_lift_spectrum(capsys):
    started = time.time()
    ok = True
    detail = ""
    # every source graph on six vertices, encoded by its edge bits
    pairs = list(itertools.combinations(range(6), 2))
    for code in range(1 << 15):
        G = Hypergraph(2, 6, [pairs[i] for i in range(15) if code >> i & 1])
        H = build_h3(G)
        hit = next((s for s in (4, 5) if contains_tight_cycle(H, s)), None)
        if hit is not None:
            ok = False
            detail = f"tight {hit}-cycle in the lift of six-vertex graph code {code}"
            break
    if ok:
        bad_lengths = [s for s in range(4, 13) if s % 3 != 0]
        for i in range(200):
            G = sample_graph(2, 25, derive_seed(0, 25, i))
            H = build_h3(G)
            hit = next((s for s in bad_lengths if contains_tight_cycle(H, s)), None)
            if hit is not None:
                ok = False
                detail = (f"tight {hit}-cycle in the lift of "
                          f"sample_graph(2, 25, derive_seed(0, 25, {i}))")
                break
    ok = ok and time.time() - started < 120
    if not ok and not detail:
        detail = f"{time.time() - started:.1f}s is over the 120 s budget"
    assert _verdict(capsys, 1, "lift kills off-residue tight cycles", ok, started, detail=detail)


def test_criterion_02_higher_uniformity_lift(capsys):
    started = time.time()
    ok = True
    for i in range(50):
        G = sample_graph(3, 14, derive_seed(0, 4, i))
        H = build_hk(G, 4)
        if any(contains_tight_cycle(H, s) for s in (5, 6, 7, 9, 10, 11)):
            ok = False
            break
    ok = ok and time.time() - started < 120
    assert _verdict(capsys, 2, "k=4 lift spectrum", ok, started)


def test_criterion_03_exhaustive_small_t(capsys):
    started = time.time()
    r3 = exhaustive_verify(3)
    r4 = exhaustive_verify(4)
    ok = (
        (r3.max_vertices, r3.max_red, r3.max_edges) == T3_WORST
        and r3.branches == T3_BRANCHES
        and r3.max_vertices == 4
        and (r4.max_vertices, r4.max_red, r4.max_edges) == T4_WORST
        and r4.branches == T4_BRANCHES
        and r4.max_vertices <= 2 * math.comb(4, 2) + 1
        and r4.max_red <= 3 * r4.max_vertices + 1
        and r4.max_edges <= 5 * r4.max_vertices + 2
    )
    ok = ok and time.time() - started < 300
    assert _verdict(
        capsys, 3, "exhaustive game verification t=3,4", ok, started,
        detail=f"worst t=4 {T4_WORST}",
    )


def test_criterion_04_random_painter_sweep(capsys):
    started = time.time()
    ok = True
    for t in range(5, 13):
        for i in range(1000):
            stats, _ = run_game(t, random_painter(derive_seed(0, t, i)))
            if not _within_bounds(stats, t):
                ok = False
                break
        red, _ = run_game(t, all_red())
        blue, _ = run_game(t, all_blue())
        saver, _ = run_game(t, greedy_saver())
        triple = (red.vertices_used, red.red_edges, red.total_edges)
        blue_triple = (blue.vertices_used, blue.red_edges, blue.total_edges)
        if triple != (4, 5, 5):
            ok = False
        if blue_triple != (t - 1, 0, math.comb(t - 1, 2)):
            ok = False
        if not _within_bounds(saver, t):
            ok = False
        if not ok:
            break
    ok = ok and time.time() - started < 120
    assert _verdict(capsys, 4, "painter sweep t=5..12", ok, started)


def test_criterion_05_cycle_clique_homomorphisms(capsys):
    started = time.time()
    K4 = complete(3, 4)
    ok = exists_homomorphism(tight_cycle(3, 5), K4) is None
    for s in (4, 6, 7, 8, 9, 10, 11, 12):
        phi = exists_homomorphism(tight_cycle(3, s), K4)
        if phi is None or not validate_homomorphism(tight_cycle(3, s), K4, phi):
            ok = False
            break
    ok = ok and time.time() - started < 10
    assert _verdict(capsys, 5, "cycle-to-clique homomorphism catalogue", ok, started)


def test_criterion_06_independence_scaling(capsys):
    started = time.time()
    rows = alpha_experiment([16, 32, 64], 30, base_seed=0)
    ok = all(r.error is None for r in rows)
    if ok:
        ratio = max(r.alpha_over_log2n for r in rows)
        ok = ratio <= RATIO_CEILING + 1e-9
        mean16 = sum(r.alpha for r in rows if r.n == 16) / 30
        mean64 = sum(r.alpha for r in rows if r.n == 64) / 30
        ok = ok and mean64 < 4 * mean16
        csv = alpha_rows_to_csv(rows).encode()
        ok = ok and hashlib.sha256(csv).hexdigest() == ALPHA_GRID_CSV_SHA256
    ok = ok and time.time() - started < 600
    assert _verdict(
        capsys, 6, "independence number scaling", ok, started,
        detail=f"max ratio {max(r.alpha_over_log2n for r in rows):.3f}",
    )


def test_criterion_07_threshold_band(capsys):
    started = time.time()
    lo, hi = THRESHOLD_BAND
    ok = True
    for n in (10**3, 10**4, 10**5, 10**6):
        ratio = union_bound_threshold(n) / math.log2(n)
        if not lo <= ratio <= hi:
            ok = False
    ok = ok and time.time() - started < 1
    assert _verdict(capsys, 7, "union-bound threshold band", ok, started)


def test_criterion_08_triple_packing_floor(capsys):
    started = time.time()
    ok = True
    for t, frozen_best in STEINER_BEST.items():
        best = 0
        for seed in range(10):
            packing = greedy_steiner_packing(t, seed)  # validity checked inside
            best = max(best, len(packing))
        if best < t * t / 7 or best != frozen_best:
            ok = False
            break
    ok = ok and time.time() - started < 60
    assert _verdict(capsys, 8, "partial triple systems beat t^2/7", ok, started)


def test_criterion_09_poset_tower_counts(capsys):
    started = time.time()
    ok = all(
        build_J(2, t, k).p == 2 * (t - k + 1)
        for t in range(5, 17)
        for k in range(4, t)
    )
    ok = ok and build_J(3, 10, 3).p == 45
    ok = ok and all(
        max_antichain(build_J(3, t, 3)) >= (t - 3) // 2 for t in range(8, 31)
    )
    if ok:
        for t in range(5, 17):
            for k in range(max(4, t - 4), t):
                J3 = build_J(3, t, k)
                if len(ideals(J3)) < 2 ** max_antichain(J3):
                    ok = False
                    break
            if not ok:
                break
    ok = ok and time.time() - started < 60
    assert _verdict(capsys, 9, "iterated ideal poset counts", ok, started)


def test_criterion_10_certificate_growth(capsys):
    started = time.time()
    ok = True
    for t in (10, 100, 1000):
        ell = 2 * math.comb(t, 2) + 1
        value = upper_bound_estimate(
            t, ell, 3 * ell + 1, (t + 1) * ell + 2, 1.0 / t
        )
        if value > BOUND_COEFF * t * t * math.log2(t):
            ok = False
    ok = ok and time.time() - started < 1
    assert _verdict(capsys, 10, "certificate stays near-quadratic", ok, started)
