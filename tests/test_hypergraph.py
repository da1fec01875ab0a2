import gc
import hashlib
import itertools

import pytest

from oracles import (
    alpha_search_calls,
    brute_alpha,
    brute_has_tight_cycle,
    brute_periods,
    brute_spectrum,
    completions,
    independence_greedy,
    is_independent,
    random_hypergraph,
    reference_hosts,
    scan_cycles_by_tuple,
    scan_link_reads,
)
from ramseykit import hypergraph
from ramseykit.construction import build_h3, build_hk, mod_spectrum_report, sample_graph
from ramseykit.homomorphism import blowup, clone_vertex
from ramseykit.hypergraph import (
    Hypergraph,
    complete,
    contains_tight_cycle,
    cycle_spectrum,
    find_tight_cycle,
    from_text,
    independence_number_exact,
    load,
    save,
    tight_cycle,
    to_text,
)
from ramseykit.rng import SplitMix64, derive_seed


# ---------------------------------------------------------------------------
# construction and validation


def test_basic_shape():
    H = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
    assert H.k == 3 and H.n == 5
    assert H.has_edge(0, 1, 2)
    assert not H.has_edge(0, 1, 3)
    assert H.degrees() == [1, 1, 2, 1, 1]


@pytest.mark.parametrize(
    "k,n,edges",
    [
        (1, 5, []),
        (3, -1, []),
        (3, 5, [(0, 1, 5)]),
        (3, 5, [(-1, 1, 2)]),
        (3, 5, [(0, 1, 1)]),
        (3, 5, [(0, 1)]),
    ],
)
def test_rejects_malformed(k, n, edges):
    with pytest.raises(ValueError):
        Hypergraph(k, n, edges)


def test_rejects_iterator_edge_naming_its_vertices():
    # the message shows the vertices read, not the exhausted iterator
    with pytest.raises(ValueError, match=r"edge \(0, 1\) does not have 3 distinct vertices"):
        Hypergraph(3, 5, [iter([0, 1])])


def test_normalizes_edge_presentation():
    # permuted and repeated inputs collapse to one stored ascending edge
    H = Hypergraph(3, 5, [(2, 0, 1), (0, 1, 2)])
    assert H.edges == ((0, 1, 2),)


def test_equality_ignores_edge_order():
    a = Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])
    b = Hypergraph(3, 4, [(1, 2, 3), (0, 1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != Hypergraph(3, 4, [(0, 1, 2)])


def test_complete_and_cycle_shapes():
    K = complete(3, 5)
    assert len(K.edges) == 10
    C = tight_cycle(3, 5)
    assert len(C.edges) == 5
    assert C.has_edge(0, 3, 4) and C.has_edge(0, 1, 4)
    # degenerate cycle of length k is a single edge
    assert tight_cycle(4, 4).edges == ((0, 1, 2, 3),)
    with pytest.raises(ValueError):
        tight_cycle(3, 2)


def test_completions_index():
    H = Hypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    comp = completions(H)
    assert comp[(0, 1)] == (2, 3)
    assert comp[(2, 3)] == (4,)


def test_links_index():
    H = Hypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    links = H._links()
    assert links[0b00011] == 0b01100  # {0, 1} -> {2, 3}
    assert links[0b01100] == 0b10000  # {2, 3} -> {4}
    assert links == {
        sum(1 << v for v in key): sum(1 << v for v in vals)
        for key, vals in completions(H).items()
    }
    assert H._links() is links


def test_periods_and_scan_share_one_link_table():
    # periods() reads the link table that the search then reuses; the
    # tuple table lives only in the test oracles
    H = tight_cycle(3, 7)
    assert H.periods() == {1}
    links = H._links_cache
    assert links is not None
    assert find_tight_cycle(H, 7) == (0, 1, 2, 3, 4, 5, 6)
    assert H._links() is links
    assert not hasattr(Hypergraph, "completions")


# ---------------------------------------------------------------------------
# tight cycle detection against the brute oracle


def test_cycle_detection_matches_brute_k3():
    for seed in range(40):
        H = random_hypergraph(3, 7, seed, eighths=3 + seed % 4)
        for s in range(4, 8):
            assert contains_tight_cycle(H, s) == brute_has_tight_cycle(H, s), (
                seed,
                s,
            )


def test_cycle_detection_matches_brute_k4():
    for seed in range(15):
        H = random_hypergraph(4, 7, seed, eighths=5)
        for s in range(5, 8):
            assert contains_tight_cycle(H, s) == brute_has_tight_cycle(H, s), (
                seed,
                s,
            )


def test_witness_is_a_real_cycle():
    found_any = 0
    for seed in range(30):
        H = random_hypergraph(3, 7, seed, eighths=5)
        for s in range(4, 8):
            witness = find_tight_cycle(H, s)
            if witness is None:
                assert not contains_tight_cycle(H, s)
                continue
            found_any += 1
            assert len(witness) == s and len(set(witness)) == s
            for i in range(s):
                window = tuple(sorted(witness[(i + j) % s] for j in range(3)))
                assert H.has_edge(*window)
    assert found_any > 20


def _is_tight_cycle(H, cycle) -> bool:
    s = len(cycle)
    return len(set(cycle)) == s and all(
        H.has_edge(*(cycle[(i + j) % s] for j in range(H.k))) for i in range(s)
    )


@pytest.mark.parametrize("k", [3, 4])
def test_long_tight_cycle_is_found(k):
    # the search walks on an explicit stack, so its depth is not capped by
    # the interpreter's recursion limit
    H = tight_cycle(k, 1500)
    witness = find_tight_cycle(H, 1500)
    assert witness is not None and witness[0] == 0
    assert _is_tight_cycle(H, witness)


@pytest.mark.parametrize("k,n", [(2, 8), (3, 8), (4, 8), (5, 8)])
def test_scan_matches_tuple_search(k, n):
    # witness for witness: the closing-window filters and the mirror rule
    # drop only paths that close no cycle before the first closing path, so
    # that path is the tuple search's; at k = 2 the mirror rule reaches
    # v_{s-1} alone
    found = 0
    for seed in range(10):
        H = random_hypergraph(k, n, seed, eighths=2 + seed % 6)
        for s in range(k + 1, n + 1):
            witness = hypergraph._scan_cycles(H, s)
            assert witness == scan_cycles_by_tuple(H, s), (k, seed, s)
            if witness is not None:
                assert _is_tight_cycle(H, witness)
                found += 1
    assert found > 5


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_scan_matches_tuple_search_on_edgeless_and_complete(k):
    for n in range(k + 1, 9):
        for s in range(k + 1, n + 1):
            assert hypergraph._scan_cycles(Hypergraph(k, n), s) is None
            H = complete(k, n)
            witness = hypergraph._scan_cycles(H, s)
            assert witness == scan_cycles_by_tuple(H, s) == tuple(range(s))


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("extra", [1, 2, 3])
def test_scan_matches_tuple_search_at_the_shortest_lengths(k, extra):
    # s = k+1 closes right after the first window, with no free depth for
    # the Y filter; at s = k+2 the Y filter narrows the first free depth,
    # and at s = k+3 the third closing filter narrows it
    s = k + extra
    outcomes = set()
    for seed in range(24):
        H = random_hypergraph(k, 9, seed, eighths=1 + seed % 4)
        witness = hypergraph._scan_cycles(H, s)
        assert witness == scan_cycles_by_tuple(H, s), (k, seed, s)
        outcomes.add(witness is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("k", [3, 4])
def test_scan_matches_tuple_search_on_a_long_tight_cycle(k):
    # Z is non-empty only at first windows through 0; at the last of them,
    # walked backwards, the mirror rule empties it, as that walk is the
    # mirror of the cycle from the first; only s = 40 closes
    H = tight_cycle(k, 40)
    for s in range(k + 1, 41):
        witness = hypergraph._scan_cycles(H, s)
        assert witness == scan_cycles_by_tuple(H, s), s
    assert witness == tuple(range(40))


def test_scan_link_reads_on_reference_hosts():
    # the tuple search ran 106,528 frames and read its completion table
    # 64,621 times on these 153 cells; the closing-window filters cut the
    # link-table reads to 44,429, and the mirror rule and the third closing
    # filter to 34,969
    cells = [(H, s) for H in reference_hosts() for s in range(4, 13)]
    assert scan_link_reads(cells) <= 38_500


def test_scan_link_reads_on_lifts():
    # the 32 lengths of the digest lifts that the period certificate admits:
    # the closing-window filters read the link table 25,415 times, the
    # mirror rule and the third closing filter 19,276; building the third
    # filter for every first window, not on first use, reads 29,790
    cells = []
    for k, n in WITNESS_LIFT_CELLS:
        for i in range(4):
            H = build_hk(sample_graph(k - 1, n, derive_seed(0, n, i)), k)
            cells += [(H, s) for s in range(k + 1, min(12, n) + 1) if H._admits(s)]
    assert len(cells) == 32
    assert scan_link_reads(cells) <= 21_200


def test_cycle_edge_cases():
    H = random_hypergraph(3, 6, 1)
    with pytest.raises(ValueError):
        contains_tight_cycle(H, 2)
    assert not contains_tight_cycle(H, 7)  # longer than n
    assert contains_tight_cycle(H, 3) == bool(H.edges)


def test_spectrum_matches_brute():
    n = 7
    for k in (3, 4):
        for seed in range(12):
            H = random_hypergraph(k, n, seed, eighths=4)
            for s_max in range(k, n + 1):
                assert cycle_spectrum(H, s_max) == brute_spectrum(H, s_max), (k, seed, s_max)


# SHA-256 of the spectra up to 12 and the witnesses for s = 4..12 on the
# reference hosts and on the lifts of sample_graph(k-1, n, derive_seed(0, n, i)),
# frozen from the single sweep to depth 12 that reported a witness per length
WITNESS_LIFT_CELLS = [(3, 14), (3, 20), (4, 18)]
WITNESS_DIGEST = "96febb7aa8d1b4233aa77246205680c9aa72f66cf29a29a0fc5103df46778de0"


def test_witnesses_match_frozen_digest():
    graphs = [(f"host {i}", H) for i, H in enumerate(reference_hosts())]
    for k, n in WITNESS_LIFT_CELLS:
        for i in range(4):
            graphs.append((f"lift {k} {n} {i}",
                           build_hk(sample_graph(k - 1, n, derive_seed(0, n, i)), k)))
    lines = []
    for label, H in graphs:
        lines.append(f"{label} spectrum {sorted(cycle_spectrum(H, 12))}")
        lines.extend(f"{label} s={s} {find_tight_cycle(H, s)}" for s in range(4, 13))
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == WITNESS_DIGEST


def test_spectrum_report_keeps_find_tight_cycle_witnesses():
    graphs = list(reference_hosts())
    for k, n in WITNESS_LIFT_CELLS:
        graphs += [build_hk(sample_graph(k - 1, n, derive_seed(0, n, i)), k) for i in range(4)]
    for H in graphs:
        report = mod_spectrum_report(H, 12)
        assert list(report.witnesses) == list(range(4 if H.k == 3 else H.k, 13))
        for s, witness in report.witnesses.items():
            assert witness == find_tight_cycle(H, s), (H, s)


def test_period_examples():
    # C^3_6 closes tight walks of lengths 6 and 3; C^3_5 of lengths 5 and 3
    assert tight_cycle(3, 6).periods() == {3}
    assert tight_cycle(3, 5).periods() == {1}
    assert tight_cycle(4, 8).periods() == {4}
    # for k = 2 the period separates bipartite from non-bipartite graphs
    assert Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)]).periods() == {2}
    assert Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)]).periods() == {1}
    assert Hypergraph(3, 5).periods() == frozenset()


@pytest.mark.parametrize("k,n", [(3, 7), (4, 6), (2, 8)])
def test_periods_match_closed_walk_oracle(k, n):
    seen = set()
    for seed in range(30):
        H = random_hypergraph(k, n, seed, eighths=1 + seed % 4)
        assert H.periods() == brute_periods(H), seed
        seen |= H.periods()
    assert len(seen) > 1  # both certificate-friendly and period-1 graphs


@pytest.mark.parametrize("k", [3, 4])
def test_period_certificate_matches_brute(k):
    n = 7
    excluded = 0
    for seed in range(40):
        H = random_hypergraph(k, n, seed, eighths=1 + seed % 3)
        periods = H.periods()
        assert all(k % p == 0 for p in periods), (seed, periods)
        if periods:
            excluded += sum(all(s % p for p in periods) for s in range(k + 1, n + 1))
        expected = brute_spectrum(H, n)
        assert cycle_spectrum(H, n) == expected, seed
        for s in range(k + 1, n + 1):
            assert contains_tight_cycle(H, s) == (s in expected), (seed, s)
            assert (find_tight_cycle(H, s) is not None) == (s in expected), (seed, s)
    # some lengths must be settled by the certificate, not by the search
    assert excluded > 0


@pytest.mark.parametrize("k, graphs", [(2, 12), (3, 12), (4, 12), (5, 3)])
def test_period_early_exit_matches_brute(k, graphs):
    # find_tight_cycle asks H._admits(s), which may stop the period walk at
    # the first running gcd dividing s.  Three ways in: a fresh H per length
    # (the early exit), one H asked every length in order, up and down (the
    # kept gcd), and one H after periods() (the cached set).  The tight
    # cycles add periods 2 and 4 at k = 4, where a kept gcd 2 admits 6 but
    # not 5.  brute_periods takes up to 1.4 s on a 5-graph, so k = 5 gets
    # fewer graphs
    hosts = [(7, random_hypergraph(k, 7, 50 * k + seed, eighths=1 + seed % 4).edges)
             for seed in range(graphs)]
    if k < 5:
        hosts += [(n, tight_cycle(k, n).edges) for n in range(k + 1, 8)]
    stopped = refused = 0
    for n, edges in hosts:
        def fresh():
            return Hypergraph(k, n, edges)

        lengths = range(k + 1, n + 1)
        periods = brute_periods(fresh())
        admitted = {s: any(s % p == 0 for p in periods) for s in lengths}
        present = {s: s in brute_spectrum(fresh(), n) for s in lengths}
        assert all(admitted[s] for s in lengths if present[s]), edges
        for s in lengths:
            H = fresh()
            assert H._admits(s) == admitted[s], (edges, s)
            stopped += H._periods_cache is None
            refused += not admitted[s]
            assert contains_tight_cycle(fresh(), s) == present[s], (edges, s)
            assert (find_tight_cycle(fresh(), s) is not None) == present[s], (edges, s)
        for order in (lengths, lengths[::-1]):
            H = fresh()
            assert {s: H._admits(s) for s in order} == admitted, edges
            H = fresh()
            assert {s: contains_tight_cycle(H, s) for s in order} == present, edges
            assert H.periods() == periods, edges
        H = fresh()
        assert H.periods() == periods, edges
        assert {s: H._admits(s) for s in lengths} == admitted, edges
        assert {s: contains_tight_cycle(H, s) for s in lengths} == present, edges
    # both the early exit and the full walk to an absent length occur
    assert stopped and refused


def test_spectrum_stops_the_period_walk_on_period_one_hosts():
    # every reference host has a period-1 component, so the first scanned
    # length stops the walk, the kept gcd 1 admits every later length and
    # the full period set is never stored; periods() then walks afresh
    for i, H in enumerate(reference_hosts()):
        edges = H.edges
        assert 1 in H.periods(), i
        H = Hypergraph(3, 25, edges)
        spectrum = cycle_spectrum(H, 12)
        assert H._periods_cache is None, i
        assert H._admit_gcd == 1, i
        periods = H.periods()
        assert periods == Hypergraph(3, 25, edges).periods(), i
        assert cycle_spectrum(H, 12) == spectrum, i  # now from the cached set
        if i in (0, 2):  # periods {1} and {1, 3}; the oracle takes about a second a host
            assert periods == brute_periods(H), i


@pytest.mark.parametrize("k, n", [(3, 12), (4, 10)])
def test_absent_length_fills_the_period_cache(k, n):
    # an absent length walks the whole digraph and stores the period set
    for seed in range(5):
        H = build_hk(sample_graph(k - 1, n, seed), k)
        assert H._periods_cache is None
        assert not contains_tight_cycle(H, k + 1), seed
        periods = H._periods_cache
        assert periods and all(p % k == 0 for p in periods), seed


def test_lifts_have_periods_divisible_by_k():
    for seed in range(20):
        H = build_h3(sample_graph(2, 12, seed))
        assert H.periods() and all(p % 3 == 0 for p in H.periods()), seed
    for seed in range(10):
        H = build_hk(sample_graph(3, 10, seed), 4)
        assert H.periods() and all(p % 4 == 0 for p in H.periods()), seed
    for seed in range(5):
        H = build_hk(sample_graph(4, 14, seed), 5)
        assert H.periods() and all(p % 5 == 0 for p in H.periods()), seed


# ---------------------------------------------------------------------------
# independent sets


def test_is_independent():
    H = Hypergraph(3, 5, [(0, 1, 2)])
    assert is_independent(H, [0, 1, 3])
    assert not is_independent(H, [0, 1, 2, 3])


def test_greedy_independent_set_is_valid():
    for seed in range(20):
        H = random_hypergraph(3, 10, seed, eighths=5)
        got = independence_greedy(H)
        assert list(got) == sorted(got)
        assert is_independent(H, got)


def test_exact_alpha_matches_brute():
    for k in (2, 3, 4, 5):
        for n in range(1, 11):
            graphs = [Hypergraph(k, n), complete(k, n)]
            graphs += [random_hypergraph(k, n, 100 * n + seed, eighths=1 + seed % 7)
                       for seed in range(4)]
            for H in graphs:
                assert independence_number_exact(H) == brute_alpha(H), (k, n, H.edges)
    for seed in range(25):
        H = random_hypergraph(3, 8, seed, eighths=2 + seed % 5)
        assert independence_number_exact(H) == brute_alpha(H), seed
    for seed in range(6):
        H = random_hypergraph(4, 8, seed, eighths=4)
        assert independence_number_exact(H) == brute_alpha(H), seed


@pytest.mark.parametrize("k, n, densities", [
    # k = 2: the base row holds both directions of each edge
    pytest.param(2, 11, range(1, 8), id="2-11"),
    pytest.param(2, 12, range(1, 8), id="2-12"),
    # k = 4, 5: rows cached per chosen-lower-vertex key
    pytest.param(4, 11, range(2, 8), id="4-11"),
    pytest.param(4, 12, range(2, 8), id="4-12"),
    pytest.param(5, 11, range(3, 8), id="5-11"),
    pytest.param(5, 12, range(3, 8), id="5-12"),
    # dense k = 3: long clique-cover classes
    pytest.param(3, 12, (6, 7), id="3-12-dense"),
])
def test_exact_alpha_matches_brute_on_two_way_rows(k, n, densities):
    # the top-down cover grows a class through conflicts with lower
    # vertices, so it reads each blocked pair in both directions
    for eighths in densities:
        for seed in range(2):
            H = random_hypergraph(k, n, 1000 * k + 100 * n + 10 * eighths + seed, eighths)
            assert independence_number_exact(H) == brute_alpha(H), (eighths, seed)


# SHA-256 of "k n i alpha" lines for the lifts of sample_graph(k-1, n,
# derive_seed(0, n, i)), frozen from the earlier k=3 link-row search and
# set-based k>=4 search
LIFT_ALPHA_CELLS = [(3, 32, 4), (3, 48, 3), (3, 64, 2), (4, 16, 4), (4, 20, 4), (4, 24, 4)]
LIFT_ALPHA_DIGEST = "33161903e2180e32bdb8c826aa2f5f8a233129a847a6bd51937eca685d8a3eaf"


def test_exact_alpha_on_lifts_matches_frozen_digest():
    lines = []
    for k, n, seeds in LIFT_ALPHA_CELLS:
        for i in range(seeds):
            G = sample_graph(k - 1, n, derive_seed(0, n, i))
            H = build_h3(G) if k == 3 else build_hk(G, k)
            lines.append(f"{k} {n} {i} {independence_number_exact(H)}")
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == LIFT_ALPHA_DIGEST


def multipartite_union(components: list[list[int]], seed: int) -> Hypergraph:
    """Disjoint union of complete multipartite graphs (k=2), one per list of
    part sizes, with the vertex labels shuffled; alpha is the sum of the
    largest parts, and a component of singleton parts is a clique."""
    labels = list(range(sum(map(sum, components))))
    SplitMix64(seed).shuffle(labels)
    edges = []
    start = 0
    for sizes in components:
        parts = []
        for size in sizes:
            parts.append(labels[start:start + size])
            start += size
        for a, b in itertools.combinations(parts, 2):
            edges.extend((u, w) for u in a for w in b)
    return Hypergraph(2, len(labels), edges)


def random_sizes(rng: SplitMix64, total: int, most: int) -> list[int]:
    """Sizes in 1..most summing to total."""
    sizes = []
    while total:
        sizes.append(min(total, 1 + rng.next_below(most)))
        total -= sizes[-1]
    return sizes


@pytest.mark.parametrize("seed", range(8))
def test_exact_alpha_on_disjoint_cliques(seed):
    # past brute-force reach: alpha is the number of cliques
    rng = SplitMix64(seed)
    cliques = random_sizes(rng, 30 + rng.next_below(11), 9)
    H = multipartite_union([[1] * size for size in cliques], seed)
    assert independence_number_exact(H) == len(cliques)


@pytest.mark.parametrize("seed", range(8))
def test_exact_alpha_on_complete_multipartite(seed):
    # alpha is the largest part, alone or summed over a disjoint union
    rng = SplitMix64(seed)
    parts = random_sizes(rng, 30 + rng.next_below(11), 9)
    assert independence_number_exact(multipartite_union([parts], seed)) == max(parts)
    components = [random_sizes(rng, 6 + rng.next_below(7), 4) for _ in range(4)]
    H = multipartite_union(components, seed)
    assert independence_number_exact(H) == sum(map(max, components))


def test_exact_alpha_search_nodes_on_reference_lift():
    # the clique-cover bound cut the k=3 n=64 reference lift from 290,690
    # search nodes (suffix bound and pool size only) to 23,402; reading each
    # child's suffix and cover bounds in its parent, before the child is
    # built, cut the grow frames to 3,619 (with 23,261 covers computed);
    # covering the pool from the top down cut them to 3,115 frames and
    # 12,675 covers
    G = sample_graph(2, 64, derive_seed(0, 64, 0))
    H = build_h3(G)
    frames, covers = alpha_search_calls(H)
    assert frames <= 3_430
    assert covers <= 14_000
    assert independence_number_exact(H) == 15
    # its k=2 source, whose one base row must hold both directions of each
    # edge: 124 frames and 346 covers bottom-up, 108 and 239 top-down, and
    # 480 and 1,059 top-down over a base row filed upward only
    frames, covers = alpha_search_calls(G)
    assert frames <= 120
    assert covers <= 265


@pytest.mark.parametrize("search", ["alpha", "cycles"])
def test_search_leaves_no_reference_cycle(search):
    # each search frees its state on return, not at the next cyclic collection
    H = build_h3(sample_graph(2, 64, derive_seed(0, 64, 0)))
    host = reference_hosts()[0]
    gc.disable()
    try:
        gc.collect()
        if search == "alpha":
            independence_number_exact(H)
        else:
            cycle_spectrum(host, 12)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_exact_alpha_size_cap():
    H = complete(3, 70)
    with pytest.raises(ValueError, match="too large"):
        independence_number_exact(H)
    assert independence_number_exact(H, cap=128) == 2


# ---------------------------------------------------------------------------
# text round trip


def test_round_trip_preserves_graph(tmp_path):
    H = random_hypergraph(3, 9, 77, eighths=3)
    path = tmp_path / "h.txt"
    save(H, path, comment="round trip probe")
    again = load(path)
    assert again == H
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# round trip probe\n")
    assert "\r" not in text


def test_text_parses_comments_and_blank_lines():
    text = "# heading\n\n3 5\n0 1 2\n\n# mid comment\n2 3 4\n"
    H = from_text(text)
    assert H == Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
    assert from_text(to_text(H)) == H


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "header"),
        ("3\n", "header"),
        ("3 5\n0 1\n", "line 2"),
        ("3 5\n0 x 2\n", "line 2"),
        ("3 5\n0 2 1\n", "line 2"),
        ("3 5\n0 1 9\n", "line 2"),
        ("3 5\n0 1 2\n0 1 2\n", "line 3"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        from_text(text)


# ---------------------------------------------------------------------------
# storage path: the package's builders and from_text skip the edge checks


def _sources(k: int, n: int) -> list[Hypergraph]:
    """Edgeless, complete and random k-graphs on n vertices."""
    return [Hypergraph(k, n), complete(k, n), random_hypergraph(k, n, 10 * n + k)]


def _stored_canonically(H: Hypergraph) -> bool:
    checked = Hypergraph(H.k, H.n, H.edges)
    return (
        H == checked
        and all(a < b for a, b in zip(H.edges, H.edges[1:]))
        and all(
            type(e) is tuple and len(e) == H.k and 0 <= e[0] and e[-1] < H.n
            and all(x < y for x, y in zip(e, e[1:]))
            for e in H.edges
        )
    )


@pytest.mark.parametrize("k", [3, 4])
def test_storage_path_builders_store_canonical_edges(k):
    for n in (0, k - 1, k + SplitMix64(k).next_below(5)):
        built = [complete(k, n), sample_graph(k - 1, n, n)]
        built += [build_hk(G, k) for G in _sources(k - 1, n)]
        for F in _sources(k, n):
            built += [blowup(F, 2), from_text(to_text(F))]
            built += [clone_vertex(F, n // 2)] if n else []
        for H in built:
            assert _stored_canonically(H), (k, n, H)


@pytest.mark.parametrize(
    "make",
    [
        lambda: complete(3, -1),
        lambda: complete(1, 3),
        lambda: sample_graph(2, -1, 0),
        lambda: from_text("3 -1\n"),
    ],
)
def test_storage_path_keeps_shape_checks(make):
    with pytest.raises(ValueError):
        make()


def test_builders_skip_the_checked_constructor(monkeypatch, tmp_path):
    G2, G3 = sample_graph(2, 14, 1), sample_graph(3, 9, 2)
    F = random_hypergraph(3, 7, 3)
    path = tmp_path / "f.txt"
    save(F, path)
    calls = [
        lambda: sample_graph(2, 14, 1),
        lambda: build_hk(G2, 3),
        lambda: build_hk(G3, 4),
        lambda: complete(3, 7),
        lambda: blowup(F, 2),
        lambda: clone_vertex(F, 3),
        lambda: load(path),
    ]
    expected = [make() for make in calls]

    def refuse(self, *args, **kwargs):
        raise AssertionError("the checked constructor was called")

    monkeypatch.setattr(Hypergraph, "__init__", refuse)
    assert [make() for make in calls] == expected
