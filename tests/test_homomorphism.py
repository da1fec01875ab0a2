import gc
import hashlib

import pytest

from oracles import brute_homomorphism, random_hypergraph
from ramseykit import homomorphism
from ramseykit.construction import build_h3, sample_graph
from ramseykit.homomorphism import (
    _period_forbids,
    blowup,
    clone_vertex,
    embeds_in_blowup,
    exists_homomorphism,
    validate_homomorphism,
)
from ramseykit.hypergraph import Hypergraph, complete, tight_cycle


def test_validate_accepts_identity():
    C = tight_cycle(3, 5)
    assert validate_homomorphism(C, C, tuple(range(5)))


def test_validate_rejects():
    C = tight_cycle(3, 5)
    K = complete(3, 4)
    assert not validate_homomorphism(C, K, (0, 1, 2))  # wrong length
    assert not validate_homomorphism(C, K, (0, 1, 2, 3, 9))  # out of range
    # collapsing an edge breaks per-edge injectivity
    assert not validate_homomorphism(C, K, (0, 0, 1, 2, 3))
    assert not validate_homomorphism(C, complete(4, 6), (0, 1, 2, 3, 0))


def test_search_agrees_with_brute_force():
    for seed in range(25):
        F = random_hypergraph(3, 5, seed, eighths=3)
        G = random_hypergraph(3, 5, seed + 1000, eighths=5)
        got = exists_homomorphism(F, G)
        brute = brute_homomorphism(F, G)
        assert (got is None) == (brute is None), seed
        if got is not None:
            assert validate_homomorphism(F, G, got)


def test_period_certificate_agrees_with_brute_force():
    fired = 0
    for k, n_F, n_G in [(2, 5, 5), (3, 5, 5), (4, 5, 5)]:
        for seed in range(40):
            F = random_hypergraph(k, n_F, seed, eighths=1 + seed % 4)
            G = random_hypergraph(k, n_G, seed + 5000, eighths=1 + seed % 6)
            brute = brute_homomorphism(F, G)
            if _period_forbids(F, G):
                fired += 1
                assert brute is None, (k, seed)
            got = exists_homomorphism(F, G)
            assert (got is None) == (brute is None), (k, seed)
            if got is not None:
                assert validate_homomorphism(F, G, got)
    # some absences must come from the certificate, not from the search
    assert fired > 0


def test_cycles_map_into_no_lift_off_residue(monkeypatch):
    # every answer must come from the certificate: the search never starts
    def no_search(F):
        raise AssertionError("backtracking search started")

    monkeypatch.setattr(homomorphism, "_search_order", no_search)
    for seed in range(4):
        lift = build_h3(sample_graph(2, 14, seed))
        for s in (4, 5, 7, 8):
            C = tight_cycle(3, s)
            assert _period_forbids(C, lift), (seed, s)
            assert exists_homomorphism(C, lift) is None, (seed, s)


def test_odd_cycle_into_bipartite_graph():
    K33 = Hypergraph(2, 6, [(a, b) for a in range(3) for b in range(3, 6)])
    for s in (3, 5, 7):
        assert _period_forbids(tight_cycle(2, s), K33)
        assert exists_homomorphism(tight_cycle(2, s), K33) is None
    for s in (4, 6, 8):
        phi = exists_homomorphism(tight_cycle(2, s), K33)
        assert phi is not None and validate_homomorphism(tight_cycle(2, s), K33, phi)


def test_identity_found_on_self():
    C = tight_cycle(3, 7)
    phi = exists_homomorphism(C, C)
    assert phi is not None
    assert validate_homomorphism(C, C, phi)


def test_cycle_to_clique_catalogue():
    K4 = complete(3, 4)
    assert exists_homomorphism(tight_cycle(3, 5), K4) is None
    for s in (4, 6, 7, 8, 9):
        phi = exists_homomorphism(tight_cycle(3, s), K4)
        assert phi is not None, s
        assert validate_homomorphism(tight_cycle(3, s), K4, phi)


def test_long_cycle_search_meets_no_recursion_limit():
    # each vertex of F is one depth of the search, far past the recursion limit
    C = tight_cycle(3, 1500)
    K4 = complete(3, 4)
    phi = exists_homomorphism(C, K4)
    assert phi is not None and validate_homomorphism(C, K4, phi)


def _digest_pairs():
    """C_s -> K^3_4 and K^3_5 for s = 4..39, then 300 seeded random pairs at
    k = 2 and 3 on at most 7 vertices (about 1 in 3 has no homomorphism)."""
    for m in (4, 5):
        for s in range(4, 40):
            yield tight_cycle(3, s), complete(3, m)
    for seed in range(300):
        k = 2 + seed % 2
        F = random_hypergraph(k, 3 + seed % 5, seed, eighths=1 + seed % 7)
        G = random_hypergraph(k, 2 + seed % 6, seed + 7000, eighths=1 + seed % 8)
        yield F, G


# SHA-256 of the 372 answers of _digest_pairs, one repr a line, taken from
# the recursive search that the flat one replaced
HOM_MAPPING_DIGEST = "f859e80ceac2c0c7cf7a78cfabb8ddf34cfe0385551923d55a792435b9fe8716"


def test_mappings_match_the_frozen_digest():
    answers = [repr(exists_homomorphism(F, G)) for F, G in _digest_pairs()]
    assert len(answers) == 372 and answers.count("None") == 134
    digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()
    assert digest == HOM_MAPPING_DIGEST


def test_uniformity_mismatch_rejected():
    with pytest.raises(ValueError):
        exists_homomorphism(tight_cycle(3, 5), complete(4, 6))


def test_empty_cases():
    empty = Hypergraph(3, 0, [])
    assert exists_homomorphism(empty, complete(3, 4)) == ()
    assert exists_homomorphism(tight_cycle(3, 4), empty) is None
    loose = Hypergraph(3, 3, [])  # no edges: anything maps anywhere
    assert exists_homomorphism(loose, Hypergraph(3, 1, [])) == (0, 0, 0)


# ---------------------------------------------------------------------------
# blowups


def test_blowup_edges_follow_fibers():
    C = tight_cycle(3, 4)
    B = blowup(C, 2)
    assert B.n == 8
    # one pick per fiber of an original edge
    assert B.has_edge(0, 2, 4) and B.has_edge(1, 3, 5)
    # two picks from one fiber never form an edge
    assert not B.has_edge(0, 1, 2)
    with pytest.raises(ValueError):
        blowup(C, 0)


def test_blowup_p1_is_identity():
    C = tight_cycle(3, 6)
    assert blowup(C, 1) == C


def test_clone_vertex_duplicates_links():
    C = tight_cycle(3, 5)
    D = clone_vertex(C, 2)
    assert D.n == 6
    for e in C.edges:
        assert D.has_edge(*e)
        if 2 in e:
            clone_e = tuple(sorted(5 if v == 2 else v for v in e))
            assert D.has_edge(*clone_e)


def test_embeds_in_blowup_results():
    K4 = complete(3, 4)
    assert embeds_in_blowup(tight_cycle(3, 5), K4) is None
    got = embeds_in_blowup(tight_cycle(3, 6), K4)
    assert got is not None
    p, phi = got
    assert p >= 1
    assert validate_homomorphism(tight_cycle(3, 6), K4, phi)
    # fiber sizes actually reach p
    fibers = {}
    for v in phi:
        fibers[v] = fibers.get(v, 0) + 1
    assert max(fibers.values()) == p


def test_embeds_in_blowup_identity_case():
    C = tight_cycle(3, 7)
    got = embeds_in_blowup(C, C)
    assert got is not None
    assert got[0] == 1  # injective placement exists


def test_search_leaves_no_reference_cycle():
    # the backtracking search frees its state on return
    pairs = [(tight_cycle(3, 6), complete(3, 4)), (tight_cycle(3, 7), complete(3, 4))]
    gc.disable()
    try:
        gc.collect()
        for F, G in pairs:
            exists_homomorphism(F, G)
        assert gc.collect() == 0
    finally:
        gc.enable()
