"""Vertex cloning, blowups, and hypergraph homomorphism search.

A homomorphism F -> G here is a total map on vertices sending every edge
of F to a set of k DISTINCT vertices forming an edge of G.  Global
injectivity is not required: such a map exists exactly when F embeds in
some blowup of G, with the needed blowup order equal to the largest
fiber of the map.

A ``None`` answer is proved in one of two ways.  The *period
certificate*: a homomorphism phi sends each arc (x1..x_{k-1}) ->
(x2..x_k) of F's tight-walk digraph (see ``Hypergraph.periods``) to an
arc of G's, so each strongly connected component of F lands inside one
component of G, and closed walks keep their lengths.  That component's
period therefore divides the F component's period; when some period of
F is a multiple of no period of G, no homomorphism exists.  For k = 2
this is the rule that an odd cycle maps into no bipartite graph.  The
test on G is the one tight-cycle lengths get, ``G._admits(q)`` for each
period q of F, so G's period walk may stop early on a q it admits.
Otherwise ``None`` comes from the exhaustive backtracking search.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Optional

from .hypergraph import Hypergraph

VertexMapping = tuple  # phi[u] = image of F-vertex u in G


def clone_vertex(F: Hypergraph, v: int) -> Hypergraph:
    """Add a clone w of v: every edge through v is duplicated onto w.

    The clone gets the fresh index n; no edge contains both v and w, and
    edges avoiding v are untouched, so the edge count grows by deg(v).
    """
    if not 0 <= v < F.n:
        raise ValueError(f"vertex {v} outside [0, {F.n})")
    w = F.n
    new_edges = list(F.edges)
    for e in F.edges:
        if v in e:  # w is the largest vertex, so it goes last
            new_edges.append(tuple(u for u in e if u != v) + (w,))
    return Hypergraph._from_canonical(F.k, F.n + 1, new_edges)


def blowup(F: Hypergraph, p: int) -> Hypergraph:
    """Replace each vertex by a fiber of p clones.

    Original vertex u becomes the fiber {u*p, ..., u*p + p - 1}; each
    edge turns into the p^k ways of picking one clone per fiber.  Fibers
    follow the order of their vertices, so each image is already ascending.
    """
    if p < 1:
        raise ValueError(f"fiber size must be positive, got {p}")
    edges = []
    for e in F.edges:
        for picks in itertools.product(range(p), repeat=F.k):
            edges.append(tuple(u * p + i for u, i in zip(e, picks)))
    return Hypergraph._from_canonical(F.k, F.n * p, edges)


def validate_homomorphism(F: Hypergraph, G: Hypergraph, phi) -> bool:
    """True iff phi maps every edge of F onto k distinct vertices forming
    an edge of G.  Every stored edge has k distinct vertices, so an image
    that repeats a vertex is never an edge."""
    if F.k != G.k:
        return False
    if len(phi) != F.n:
        return False
    if any(not 0 <= phi[u] < G.n for u in range(F.n)):
        return False
    return all(G.has_edge(*(phi[u] for u in e)) for e in F.edges)


def _search_order(F: Hypergraph) -> list[int]:
    """Vertices of F so each one (past the first of its component) shares
    an edge with an earlier one; components entered at their smallest
    vertex, neighbors expanded smallest-first."""
    neighbors: dict[int, set[int]] = {u: set() for u in range(F.n)}
    for e in F.edges:
        for u in e:
            neighbors[u].update(x for x in e if x != u)
    order: list[int] = []
    seen: set[int] = set()
    for root in range(F.n):
        if root in seen:
            continue
        heap = [root]
        seen.add(root)
        while heap:
            u = heapq.heappop(heap)
            order.append(u)
            for x in sorted(neighbors[u]):
                if x not in seen:
                    seen.add(x)
                    heapq.heappush(heap, x)
    return order


def _period_forbids(F: Hypergraph, G: Hypergraph) -> bool:
    """True when some component period of F is a multiple of no period of G:
    a period q of F that G does not admit as a closed-walk length."""
    return any(not G._admits(q) for q in F.periods())


def exists_homomorphism(F: Hypergraph, G: Hypergraph) -> Optional[VertexMapping]:
    """Backtracking search for a homomorphism F -> G.

    Deterministic: vertices of F are processed in a connectivity-respecting
    order and candidate images are tried by ascending (current fiber load,
    vertex index), which keeps fibers small and finds the identity on
    (F, F).  Returns the mapping as a tuple indexed by F's vertices, or
    None.  None is proved by the period certificate when some component
    period of ``F.periods()`` is a multiple of no period in
    ``G.periods()``, and otherwise by the exhaustive search closing empty.
    """
    if F.k != G.k:
        raise ValueError(f"uniformity mismatch: {F.k} vs {G.k}")
    if F.n == 0:
        return ()
    if G.n == 0 or _period_forbids(F, G):
        return None
    order = _search_order(F)
    position = {u: i for i, u in enumerate(order)}
    # edges become checkable once their last vertex (in search order) lands
    check_at: list[list[tuple[int, ...]]] = [[] for _ in range(F.n)]
    for e in F.edges:
        check_at[max(position[u] for u in e)].append(e)

    phi: dict[int, int] = {}
    load = Counter()

    has_edge = G.has_edge

    def feasible(i: int) -> bool:
        for e in check_at[i]:
            if not has_edge(*[phi[u] for u in e]):
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        for target in sorted(range(G.n), key=lambda g: (load[g], g)):
            phi[u] = target
            load[target] += 1
            if feasible(i) and extend(i + 1):
                return True
            load[target] -= 1
            del phi[u]
        return False

    try:
        if extend(0):
            return tuple(phi[u] for u in range(F.n))
        return None
    finally:
        extend = None  # break the closure's self-reference, a reference cycle


def embeds_in_blowup(
    F: Hypergraph, G: Hypergraph
) -> Optional[tuple[int, VertexMapping]]:
    """Witness that F sits inside some blowup of G.

    Returns (p, phi) where p is the largest fiber of the found map, so F
    is a sub-hypergraph of the order-p blowup of G (the search prefers
    lightly used targets, keeping p small, but p is not guaranteed
    minimal); None when no homomorphism exists at all.
    """
    phi = exists_homomorphism(F, G)
    if phi is None:
        return None
    if not phi:
        return (1, phi)
    fibers = Counter(phi)
    return (max(fibers.values()), phi)
