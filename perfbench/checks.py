"""Answer checks written from the definitions, not from ramseykit's code.

Each function takes plain data (edge tuples, down-set masks, counts)
and returns True when the answer is right.  None of them calls the
search it checks.
"""

from __future__ import annotations

import itertools
import math


def lift_edges(source_edges, n: int, k: int) -> set[tuple[int, ...]]:
    """Edges of the asymmetric lift of a (k-1)-graph, straight from the rule.

    {i1 < ... < ik} is an edge iff the (k-1)-subset without i1 is absent
    and every other (k-1)-subset is present.
    """
    present = {tuple(sorted(e)) for e in source_edges}
    edges = set()
    for e in itertools.combinations(range(n), k):
        if e[1:] in present:
            continue
        if all(e[:a] + e[a + 1:] in present for a in range(1, k)):
            edges.add(e)
    return edges


def is_tight_cycle(edge_set, k: int, cycle, s: int) -> bool:
    """s distinct in-range vertices whose every cyclic k-window is an edge."""
    if cycle is None or len(cycle) != s or len(set(cycle)) != s:
        return False
    return all(
        tuple(sorted(cycle[(i + j) % s] for j in range(k))) in edge_set
        for i in range(s)
    )


def independent_greedy_size(edges, n: int) -> int:
    """Size of the independent set kept by a first-fit scan: a lower bound."""
    chosen: set[int] = set()
    by_vertex: dict[int, list] = {v: [] for v in range(n)}
    for e in edges:
        for v in e:
            by_vertex[v].append(e)
    for v in range(n):
        if not any(all(u in chosen for u in e if u != v) for e in by_vertex[v]):
            chosen.add(v)
    return len(chosen)


def packing_ok(triples, t: int) -> bool:
    """Triples over [0, t), every pair covered at most once, at least t^2/7 of them."""
    seen = set()
    for tr in triples:
        if len(set(tr)) != 3 or min(tr) < 0 or max(tr) >= t:
            return False
        for pair in itertools.combinations(sorted(tr), 2):
            if pair in seen:
                return False
            seen.add(pair)
    return len(triples) >= t * t / 7


def threshold_ok(n: int, t: int) -> bool:
    """t is the least value >= 3 with log C(n, t) + (t^2/7) log(7/8) < 0."""

    def below(x: int) -> bool:
        if x > n:
            return True
        log_c = math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
        return log_c + (x * x / 7) * math.log(7 / 8) < 0

    return t >= 3 and below(t) and (t == 3 or not below(t - 1))


def game_within_caps(stats, t: int) -> bool:
    """The resource caps a builder win must respect, checked on final counts."""
    ell = stats.vertices_used
    return (
        stats.outcome in ("RedK4Minus", "BlueClique")
        and ell <= 2 * math.comb(t, 2) + 1
        and stats.red_edges <= 3 * ell + 1
        and stats.total_edges <= (t + 1) * ell + 2
    )


def antichain_ok(down, witness, width: int) -> bool:
    """Pairwise incomparable elements, as many as the claimed width."""
    if len(witness) != width or len(set(witness)) != width:
        return False
    return all(
        not (down[y] >> x) & 1 and not (down[x] >> y) & 1
        for x, y in itertools.combinations(witness, 2)
    )


def strict_pairs(down) -> int:
    """Number of strictly comparable pairs x < y."""
    return sum(mask.bit_count() - 1 for mask in down)
