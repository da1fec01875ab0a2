import hashlib
import itertools
import math
import tracemalloc

import pytest

from oracles import random_hypergraph, steiner_packing_by_pair
from ramseykit.construction import (
    ALPHA_CSV_HEADER,
    SpectrumReport,
    TriplePacking,
    alpha_experiment,
    alpha_rows_to_csv,
    build_h3,
    build_hk,
    greedy_steiner_packing,
    mod_spectrum_report,
    sample_graph,
    union_bound_threshold,
)
from ramseykit.hypergraph import (
    Hypergraph,
    independence_number_exact,
    tight_cycle,
)
from ramseykit.rng import SplitMix64, derive_seed


# ---------------------------------------------------------------------------
# source graph sampling


def test_sample_graph_bit_per_lex_candidate():
    # candidate pairs in lexicographic order, one fair bit each, 1 keeps
    seed = 99
    G = sample_graph(2, 6, seed)
    rng = SplitMix64(seed)
    expect = [
        pair
        for pair in itertools.combinations(range(6), 2)
        if rng.next_bit() == 1
    ]
    assert list(G.edges) == expect


def test_sample_graph_deterministic():
    assert sample_graph(2, 12, 5) == sample_graph(2, 12, 5)
    assert sample_graph(2, 12, 5) != sample_graph(2, 12, 6)


# ---------------------------------------------------------------------------
# the lift


def _lift_oracle_3(G: Hypergraph) -> set[tuple[int, int, int]]:
    out = set()
    for i, j, k in itertools.combinations(range(G.n), 3):
        if G.has_edge(i, j) and G.has_edge(i, k) and not G.has_edge(j, k):
            out.add((i, j, k))
    return out


def test_build_h3_matches_rule():
    for seed in range(30):
        G = sample_graph(2, 9, seed)
        H = build_h3(G)
        assert set(H.edges) == _lift_oracle_3(G), seed


def test_build_h3_worked_case():
    # source {01, 02}: only the triple 0<1<2 omits its minimum absent pair
    G = Hypergraph(2, 3, [(0, 1), (0, 2)])
    assert build_h3(G).edges == ((0, 1, 2),)


def _lift_oracle_k(G: Hypergraph, k: int) -> set[tuple[int, ...]]:
    # a k-set joins the lift iff the (k-1)-subset omitting its minimum is
    # absent from the source and every other (k-1)-subset is present
    out = set()
    for cand in itertools.combinations(range(G.n), k):
        omit_min = tuple(cand[1:])
        others = [
            tl for tl in itertools.combinations(cand, k - 1) if tl != omit_min
        ]
        if not G.has_edge(*omit_min) and all(G.has_edge(*tl) for tl in others):
            out.add(cand)
    return out


def test_build_hk_matches_rule():
    for seed in range(12):
        G = random_hypergraph(2, 10, seed, eighths=4)
        assert set(build_hk(G, 3).edges) == _lift_oracle_k(G, 3), seed
    for seed in range(12):
        G = random_hypergraph(3, 8, seed, eighths=4)
        H = build_hk(G, 4)
        assert set(H.edges) == _lift_oracle_k(G, 4), seed
    for seed in range(6):
        G = random_hypergraph(4, 8, seed, eighths=5)
        assert set(build_hk(G, 5).edges) == _lift_oracle_k(G, 5), seed
    # degenerate sources: no vertices, no edges, every edge
    for k in (3, 4, 5):
        for n in (0, k - 1, 7):
            for edges in ([], itertools.combinations(range(n), k - 1)):
                G = Hypergraph(k - 1, n, edges)
                assert set(build_hk(G, k).edges) == _lift_oracle_k(G, k), (k, n)


# (k, n, seeds): lifts of sample_graph(k-1, n, derive_seed(0, n, i)) beyond
# the oracle's reach; SHA-256 of the "k n i v1 .. vk" edge lines, frozen from
# the pair-graph loop and the subset scan that preceded the link-mask lift
LIFT_DIGEST_CELLS = ((3, 25, 3), (3, 64, 2), (4, 18, 3), (4, 24, 2), (5, 14, 3))
LIFT_DIGEST = "698b26f9e46b70cc165149320325bd72be297e6675ac5d1e7fe0822a0d1feaad"


def test_lift_edges_match_frozen_digest():
    lines = []
    for k, n, seeds in LIFT_DIGEST_CELLS:
        for i in range(seeds):
            H = build_hk(sample_graph(k - 1, n, derive_seed(0, n, i)), k)
            lines += [f"{k} {n} {i} " + " ".join(map(str, e)) for e in H.edges]
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == LIFT_DIGEST


def test_lift_kills_off_residue_cycles():
    # the headline invariant: every source graph, not just random ones
    for seed in range(40):
        G = sample_graph(2, 12, seed)
        report = mod_spectrum_report(build_h3(G), 10)
        assert report.verdict == "PASS", (seed, report.found)
        hits = {s for s, hit in report.found.items() if hit}
        assert all(s % 3 == 0 for s in hits)


def test_spectrum_report_fails_on_plain_cycle():
    report = mod_spectrum_report(tight_cycle(3, 5), 8)
    assert report.verdict == "FAIL"
    assert report.offending == (5,)
    assert report.found[5] is True


def test_spectrum_report_verdict_reads_its_witnesses():
    # a hand-built table: the verdict and offending lengths follow the witnesses
    bad = SpectrumReport(k=3, n=6, s_max=6, witnesses={4: None, 5: (0, 1, 2, 3, 4), 6: None})
    assert bad.verdict == "FAIL"
    assert bad.offending == (5,)
    assert bad.found == {4: False, 5: True, 6: False}
    good = SpectrumReport(k=3, n=6, s_max=6, witnesses={4: None, 5: None, 6: (0, 1, 2, 3, 4, 5)})
    assert good.verdict == "PASS" and good.offending == ()
    assert bad != good and hash(bad) == hash(good)  # equality reads the table


def test_spectrum_report_csv_shape():
    # requested lengths beyond n cannot occur and are clamped away
    report = mod_spectrum_report(tight_cycle(3, 5), 8)
    lines = report.to_csv().splitlines()
    assert lines[0] == "s,cycle_found"
    assert lines[1:] == ["4,false", "5,true"]


# ---------------------------------------------------------------------------
# triple packings


def test_packing_validation():
    TriplePacking(t=7, triples=((0, 1, 2), (0, 3, 4)))
    with pytest.raises(ValueError, match="covered twice"):
        TriplePacking(t=7, triples=((0, 1, 2), (0, 1, 3)))
    with pytest.raises(ValueError, match="outside"):
        TriplePacking(t=5, triples=((0, 1, 5),))
    with pytest.raises(ValueError, match="malformed"):
        TriplePacking(t=5, triples=((2, 1, 0),))


def _plain_greedy_size(t: int, seed: int) -> int:
    rng = SplitMix64(seed)
    pool = list(itertools.combinations(range(t), 3))
    rng.shuffle(pool)
    used = set()
    count = 0
    for a, b, c in pool:
        pairs = ((a, b), (a, c), (b, c))
        if all(p not in used for p in pairs):
            used.update(pairs)
            count += 1
    return count


def test_steiner_packing_valid_and_never_below_greedy():
    for t in (7, 9, 13):
        for seed in range(6):
            packing = greedy_steiner_packing(t, seed)  # validates in constructor
            assert len(packing) >= _plain_greedy_size(t, seed), (t, seed)


def test_steiner_packing_deterministic():
    a = greedy_steiner_packing(15, 3)
    b = greedy_steiner_packing(15, 3)
    assert a.triples == b.triples


def test_steiner_packing_matches_by_pair_oracle():
    cells = [(t, seed) for t in range(3, 26) for seed in range(6)]
    cells += [(51, seed) for seed in range(3)] + [(99, 0)]
    for t, seed in cells:
        expect = steiner_packing_by_pair(t, seed)
        assert greedy_steiner_packing(t, seed).triples == expect, (t, seed)


# t -> (seeds, SHA-256 of the "seed a b c" lines of the packings for those
# seeds); t <= 33 frozen from the earlier pair-counter implementation, t = 51
# and 99 from the pair-index sweep
STEINER_DIGESTS = {
    9: (10, "5cc53cbdc6cd44ad8e214f7cc804258f97159b257db420edcde44d6f2b786958"),
    15: (10, "b2d50c7a46a2d941436292cd7daf1d8569d0dd4178011b6911bf60a7cf8b2bfb"),
    21: (10, "7274381a1377c75268c9a0bcf666c7782c37eca8bf6df4aafe4fdac479df1acc"),
    33: (10, "9d009f64475c9717c30b0fb63b05c1b0e534fa5f1b33faddb69d860cde4dcd62"),
    51: (10, "88913b86a216bd5d8ee475b753c71d13944695084be64d047144b007a46a057f"),
    99: (3, "89865a84d367edd03338ea1cde5fdee83f30075606165eb6dacac2fd7ec49827"),
}


@pytest.mark.parametrize("t", sorted(STEINER_DIGESTS))
def test_steiner_packing_matches_frozen_digest(t):
    seeds, expect = STEINER_DIGESTS[t]
    lines = [
        f"{seed} {a} {b} {c}"
        for seed in range(seeds)
        for a, b, c in greedy_steiner_packing(t, seed).triples
    ]
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == expect


def test_steiner_rejects_tiny():
    with pytest.raises(ValueError):
        greedy_steiner_packing(2, 0)


def test_steiner_rejects_more_triples_than_c_int_ranks():
    # C(2345, 3) < 2**31 < C(2346, 3); refused before any array is built
    with pytest.raises(ValueError, match="too many to rank"):
        greedy_steiner_packing(2346, 0)


def test_steiner_packing_builds_no_triple_pool():
    # two C-int arrays over C(99, 3) = 156,849 ranks take 1.2 MiB; a list
    # of all those triples as tuples would take about 12 MiB
    tracemalloc.start()
    try:
        greedy_steiner_packing(99, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak


# ---------------------------------------------------------------------------
# union bound threshold


def test_threshold_is_the_least_crossing():
    # the bound is concave in t and 0 at t = 0, so t is the least t >= 3
    # below 0 iff it is below 0 and t - 1 is not (or t = 3); log-gamma
    # differences cancel to nothing from n near 10^16 on
    rng = SplitMix64(14)
    sample = [50, 400, 2000, 10**16, 3 * 10**16, 10**18]
    sample += [10**12 + rng.next_below(10**15 - 10**12) for _ in range(100)]
    log78 = math.log(7 / 8)
    for n in sample:
        t = union_bound_threshold(n)

        def bound(tt):
            return math.log(math.comb(n, tt)) + (tt * tt / 7) * log78

        assert bound(t) < 0, n
        if t > 3:
            assert bound(t - 1) >= 0, n


def test_threshold_beyond_the_float_range():
    # n^t / t! exceeds C(n, t) by a factor below 1 + t^2 / n, invisible in a
    # float here, so log C(n, t) is t log n - log t!; math.comb itself takes
    # most of a minute at t near 37,000
    n = 10**310
    log78 = math.log(7 / 8)

    def bound(tt):
        return tt * math.log(n) - math.lgamma(tt + 1) + (tt * tt / 7) * log78

    t = union_bound_threshold(n)
    assert bound(t) < 0 <= bound(t - 1)
    assert t == 36921


def test_threshold_known_values():
    assert union_bound_threshold(1000) == 148
    assert union_bound_threshold(10**6) == 456


def test_threshold_monotone_in_n():
    values = [union_bound_threshold(n) for n in (10, 100, 1000, 10000)]
    assert values == sorted(values)


def test_threshold_rejects_small_n():
    with pytest.raises(ValueError):
        union_bound_threshold(1)


# ---------------------------------------------------------------------------
# independence experiment


def test_alpha_experiment_rows():
    rows = alpha_experiment([8, 16], 3, base_seed=4)
    assert [r.n for r in rows] == [8, 8, 8, 16, 16, 16]
    for idx, row in enumerate(rows):
        assert row.error is None
        assert row.seed == derive_seed(4, row.n, idx % 3)
        G = sample_graph(2, row.n, row.seed)
        H = build_h3(G)
        assert row.alpha == independence_number_exact(H)
        assert row.alpha_over_log2n == pytest.approx(row.alpha / math.log2(row.n))


def test_alpha_experiment_error_rows():
    rows = alpha_experiment([1, 200], 1, base_seed=0)
    assert all(r.error is not None for r in rows)
    csv = alpha_rows_to_csv(rows)
    body = csv.splitlines()[1:]
    assert body[0].startswith("1,") and body[0].endswith(",,")


def test_alpha_csv_thread_count_invariance():
    rows1 = alpha_experiment([10, 14], 4, base_seed=9, max_threads=1)
    rows4 = alpha_experiment([10, 14], 4, base_seed=9, max_threads=4)
    assert alpha_rows_to_csv(rows1) == alpha_rows_to_csv(rows4)
    assert alpha_rows_to_csv(rows1).splitlines()[0] == ALPHA_CSV_HEADER
