"""Brute-force reference implementations used only by the tests.

Everything here is written for clarity over speed and is only ever run
on instances small enough to enumerate outright.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import sys

from ramseykit import hypergraph
from ramseykit.game import BLUE, RED
from ramseykit.hypergraph import Hypergraph
from ramseykit.poset import Poset
from ramseykit.rng import SplitMix64


def random_hypergraph(k: int, n: int, seed: int, eighths: int = 4) -> Hypergraph:
    """Each k-subset kept with probability eighths/8."""
    rng = SplitMix64(seed)
    edges = [
        e for e in itertools.combinations(range(n), k) if rng.next_below(8) < eighths
    ]
    return Hypergraph(k, n, edges)


def reference_hosts() -> list[Hypergraph]:
    """Random 3-graphs on 25 vertices from one Random(0) stream: 2 x 300 edges, 15 x 200."""
    rng = random.Random(0)
    triples = list(itertools.combinations(range(25), 3))
    return [Hypergraph(3, 25, rng.sample(triples, m)) for m in [300] * 2 + [200] * 15]


def brute_has_tight_cycle(H: Hypergraph, s: int) -> bool:
    """Try every arrangement of every s-subset as a cyclic vertex order."""
    k = H.k
    if s < k or s > H.n:
        return False
    if s == k:
        return bool(H.edges)
    for subset in itertools.combinations(range(H.n), s):
        for perm in itertools.permutations(subset):
            ok = True
            for i in range(s):
                window = tuple(sorted(perm[(i + j) % s] for j in range(k)))
                if not H.has_edge(*window):
                    ok = False
                    break
            if ok:
                return True
    return False


def completions(H: Hypergraph) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map each (k-1)-subset of an edge, as a sorted tuple, to the vertices
    completing it, ascending; the oracle for ``Hypergraph._links``."""
    comp: dict[tuple[int, ...], list[int]] = {}
    for e in H.edges:
        for i in range(H.k):
            comp.setdefault(e[:i] + e[i + 1:], []).append(e[i])
    return {key: tuple(vals) for key, vals in comp.items()}


def scan_cycles_by_tuple(H: Hypergraph, s: int) -> tuple[int, ...] | None:
    """The tight-path search over sorted (k-1)-tuples, with every wraparound
    window checked as an edge once the path reaches length s; the oracle
    for ``hypergraph._scan_cycles``, which must return the same witness.

    ``s`` must lie in [k+1, n].  Paths grow from an anchored first window
    (the anchor is the cycle's minimum vertex, which kills rotational
    duplicates, so the vertices up to it start out visited) through the
    (k-1)-subset completion table, to depth s and no further; a path of
    length s closes into a cycle when its k-1 wraparound windows are edges.
    """
    k = H.k
    comp = completions(H)
    edge_set = set(H.edges)
    path = [0] * s

    def extend(depth: int, visited: int) -> bool:
        """Grow the tight path; returns True once it closes at length s."""
        if depth == s:
            for i in range(s - k + 1, s):
                if tuple(sorted(path[i:] + path[: k - s + i])) not in edge_set:
                    return False
            return True
        suffix = tuple(sorted(path[depth - k + 1: depth]))
        for w in comp.get(suffix, ()):
            if not (visited >> w) & 1:
                path[depth] = w
                if extend(depth + 1, visited | (1 << w)):
                    return True
        return False

    try:
        for first_window in H.edges:
            anchor = first_window[0]
            for perm in itertools.permutations(first_window[1:]):
                path[0] = anchor
                path[1: k] = perm
                visited = (2 << anchor) - 1 | sum(1 << v for v in perm)
                if extend(k, visited):
                    return tuple(path)
        return None
    finally:
        extend = None  # break the closure's self-reference, a reference cycle


def scan_link_reads(cells) -> int:
    """The link-table reads of ``hypergraph._scan_cycles(H, s)`` over the
    (H, s) cells: the C calls bound to ``H._links()``, seen by a profile hook."""
    reads = 0
    table = None

    def count(frame, event, arg):
        nonlocal reads
        if event == "c_call" and getattr(arg, "__self__", None) is table:
            reads += 1

    for H, s in cells:
        table = H._links()
        sys.setprofile(count)
        try:
            hypergraph._scan_cycles(H, s)
        finally:
            sys.setprofile(None)
    return reads


def alpha_search_calls(H: Hypergraph) -> tuple[int, int]:
    """The ``grow`` and ``cover`` calls of
    ``hypergraph.independence_number_exact(H)``: the search frames and the
    clique covers it builds, seen by a profile hook."""
    calls = {"grow": 0, "cover": 0}
    source = hypergraph.independence_number_exact.__code__.co_filename

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in calls and code.co_filename == source:
            calls[code.co_name] += 1

    sys.setprofile(count)
    try:
        hypergraph.independence_number_exact(H)
    finally:
        sys.setprofile(None)
    return calls["grow"], calls["cover"]


def brute_spectrum(H: Hypergraph, s_max: int) -> set[int]:
    lo = 4 if H.k == 3 else H.k
    out = set()
    for s in range(lo, min(s_max, H.n) + 1):
        if brute_has_tight_cycle(H, s):
            out.add(s)
    return out


def brute_periods(H: Hypergraph) -> frozenset[int]:
    """Component periods of the tight-walk digraph, from closed-walk lengths.

    Nodes are ordered (k-1)-tuples, with an arc p[:-1] -> p[1:] for each
    ordering p of each edge.  A node's period is the gcd of the lengths of
    the closed walks through it, and those of length at most 4N (N nodes)
    already reach it: for any simple cycle C in the node's component, the
    walks out to C, round it once or twice, and back differ by |C|.
    """
    nodes = sorted({p for e in H.edges for p in itertools.permutations(e, H.k - 1)})
    index = {t: i for i, t in enumerate(nodes)}
    size = len(nodes)
    # boolean matrices as bitmask columns: bit i of walks[j] says that
    # some walk of the current length leads from node i to node j
    into: list[list[int]] = [[] for _ in range(size)]
    for e in H.edges:
        for p in itertools.permutations(e):
            into[index[p[1:]]].append(index[p[:-1]])
    walks = [1 << j for j in range(size)]
    gcds = [0] * size
    for length in range(1, 4 * size + 1):
        # walks = walks @ arcs, one column j at a time
        walks = [
            functools.reduce(operator.or_, (walks[m] for m in into[j]), 0)
            for j in range(size)
        ]
        for v in range(size):
            if walks[v] >> v & 1:
                gcds[v] = math.gcd(gcds[v], length)
    return frozenset(g for g in gcds if g)


def from_strict_pairs(p: int, pairs) -> Poset:
    """Poset from generating strict relations x < y (closure computed)."""
    down = [1 << x for x in range(p)]
    covers = [[] for _ in range(p)]
    for x, y in pairs:
        covers[y].append(x)
    changed = True
    while changed:
        changed = False
        for y in range(p):
            acc = down[y]
            for x in covers[y]:
                acc |= down[x]
            if acc != down[y]:
                down[y] = acc
                changed = True
    return Poset(down)


def is_independent(H: Hypergraph, vertices) -> bool:
    """True iff no edge of H lies entirely inside the given vertex set."""
    S = set(vertices)
    for v in S:
        if not 0 <= v < H.n:
            raise ValueError(f"vertex {v} outside [0, {H.n})")
    if len(S) < H.k:
        return True
    return not any(S.issuperset(e) for e in H.edges)


def independence_greedy(H: Hypergraph) -> tuple[int, ...]:
    """Greedy independent set: scan vertices in ascending order, skip any
    vertex that would complete an edge inside the chosen set."""
    chosen: set[int] = set()
    incident: dict[int, list[tuple[int, ...]]] = {v: [] for v in range(H.n)}
    for e in H.edges:
        for v in e:
            incident[v].append(e)
    for v in range(H.n):
        if any(all(u in chosen for u in e if u != v) for e in incident[v]):
            continue
        chosen.add(v)
    return tuple(sorted(chosen))


def brute_alpha(H: Hypergraph) -> int:
    for size in range(H.n, 0, -1):
        for subset in itertools.combinations(range(H.n), size):
            chosen = set(subset)
            if not any(set(e) <= chosen for e in H.edges):
                return size
    return 0


def brute_homomorphism(F: Hypergraph, G: Hypergraph):
    """Exhaust all vertex maps, demanding injectivity on every edge."""
    if F.n == 0:
        return ()
    for phi in itertools.product(range(G.n), repeat=F.n):
        ok = True
        for e in F.edges:
            image = tuple(sorted(phi[v] for v in e))
            if len(set(image)) != len(image) or not G.has_edge(*image):
                ok = False
                break
        if ok:
            return phi
    return None


def brute_ideals(P) -> list[int]:
    """All down-closed subsets as bitmasks, ascending."""
    out = []
    for mask in range(1 << P.p):
        closed = True
        for x in range(P.p):
            if mask >> x & 1 and P.down[x] & ~mask:
                closed = False
                break
        if closed:
            out.append(mask)
    return out


def brute_width(P) -> int:
    for size in range(P.p, 0, -1):
        for subset in itertools.combinations(range(P.p), size):
            if all(
                not P.less(a, b) and not P.less(b, a)
                for a, b in itertools.combinations(subset, 2)
            ):
                return size
    return 0


def brute_matching_size(P) -> int:
    """Maximum matching of the strict comparability bipartite graph.

    Lower copy x is joined to upper copy y when x < y.  Plain augmenting
    paths over adjacency sets, one recursive search per lower copy: an
    independent second opinion on the bitmask matching behind the width.
    """
    up = {x: {y for y in range(P.p) if P.less(x, y)} for x in range(P.p)}
    owner: dict[int, int] = {}

    def augment(x, seen) -> bool:
        for y in sorted(up[x]):
            if y in seen:
                continue
            seen.add(y)
            if y not in owner or augment(owner[y], seen):
                owner[y] = x
                return True
        return False

    return sum(1 for x in range(P.p) if augment(x, set()))


def shuffle_by_next_below(rng: SplitMix64, items) -> None:
    """Fisher-Yates from the last index down, one ``next_below`` per draw;
    the oracle for the inlined ``SplitMix64.shuffle``."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


def steiner_packing_by_pair(t: int, seed: int) -> tuple[tuple[int, int, int], ...]:
    """The greedy packing and its swap sweep, read through a pair index.

    Shuffles the triple list itself and indexes every pair by the
    positions of its t - 2 triples; the sweep reads a lifted triple's
    three pair lists and tests each position lazily in ascending order.
    """
    rng = SplitMix64(seed)
    pool = list(itertools.combinations(range(t), 3))
    rng.shuffle(pool)
    by_pair: dict[tuple[int, int], list[int]] = {}
    for i, (a, b, c) in enumerate(pool):
        for p in ((a, b), (a, c), (b, c)):
            by_pair.setdefault(p, []).append(i)
    used = set()

    def fits(i: int) -> bool:
        a, b, c = pool[i]
        return not {(a, b), (a, c), (b, c)} & used

    def flip(i: int) -> None:
        a, b, c = pool[i]
        used.symmetric_difference_update({(a, b), (a, c), (b, c)})

    order = []
    for i in range(len(pool)):
        if fits(i):
            order.append(i)
            flip(i)
    kept = set(order)
    for i in order:
        flip(i)
        a, b, c = pool[i]
        free = (j for j in sorted(by_pair[a, b] + by_pair[a, c] + by_pair[b, c])
                if j != i and fits(j))
        first = next(free, None)
        if first is not None:
            flip(first)
            second = next(free, None)
            if second is not None:
                flip(second)
                kept.remove(i)
                kept.update((first, second))
                continue
            flip(first)
        flip(i)
    return tuple(sorted(pool[i] for i in kept))


def edge_color(label_a: str, label_b: str):
    """Color of the exposed edge between two game labels, or None if unexposed.

    The edge is exposed iff one label is a proper prefix of the other, and
    it carries the longer label's digit at the shorter label's length.
    """
    if len(label_a) > len(label_b):
        label_a, label_b = label_b, label_a
    if len(label_a) < len(label_b) and label_b.startswith(label_a):
        return label_b[len(label_a)]
    return None


def detect_red_k4_minus_brute(state):
    """Scan all 4-tuples for five red edges v1v2, v1v3, v1v4, v2v3, v2v4;
    the oracle for the game's incremental red win rule."""
    labels = state.labels
    for v1, v2, v3, v4 in itertools.combinations(range(len(labels)), 4):
        need = [(v1, v2), (v1, v3), (v1, v4), (v2, v3), (v2, v4)]
        if all(edge_color(labels[x], labels[y]) == RED for x, y in need):
            return (v1, v2, v3, v4)
    return None


def detect_blue_clique_brute(state, q: int):
    """Scan all q-subsets for a clique of exposed blue edges; the oracle
    for the game's incremental blue win rule at q = t-1."""
    labels = state.labels
    if q < 1:
        raise ValueError(f"clique size must be positive, got {q}")
    if q == 1:
        return (0,) if labels else None
    for vs in itertools.combinations(range(len(labels)), q):
        if all(
            edge_color(labels[x], labels[y]) == BLUE
            for x, y in itertools.combinations(vs, 2)
        ):
            return vs
    return None
