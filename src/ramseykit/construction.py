"""Seeded random constructions whose cycle spectrum is forced modulo k.

The pipeline: sample a random (k-1)-uniform source graph with edge
probability 1/2, then lift it to a k-graph by an asymmetric local rule
that reads the natural integer order on vertices.  For k = 3 the rule is

    {i, j, k} with i < j < k is an edge  iff  ij and ik are present
    and jk is absent in the source graph,

and in general the (k-1)-subset omitting the minimum vertex must be
absent while every other (k-1)-subset is present.  One bitmask lift,
``build_hk``, applies the rule at every k through the link masks of the
source's (k-2)-sets; ``build_h3`` is its k = 3 case.  A short parity
argument shows any tight cycle in the lifted graph has length divisible
by k, for every source graph.  The spectrum report checks this per lift:
every component period of a lift's tight-walk digraph is a multiple of
k, so the period certificate in ``hypergraph`` proves each off-residue
length absent without a search.

Also here: greedy partial Steiner triple packings, walked over a seeded
permutation of triple ranks and finished from the triangles of the
still-uncovered pairs; the union-bound threshold for the clique side;
and the seeded independence-number experiment.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .hypergraph import Hypergraph, cycle_witnesses, independence_number_exact
from .rng import SplitMix64, check_seed, derive_seed


def sample_graph(order: int, n: int, seed: int) -> Hypergraph:
    """Random order-uniform graph: each candidate edge kept with probability 1/2.

    Candidates are enumerated in lexicographic order and consume one fair
    bit each (bit 1 = keep) from the documented 64-bit generator, so the
    same (order, n, seed) gives a bit-identical graph on any platform.
    """
    if not 2 <= order:
        raise ValueError(f"order must be at least 2, got {order}")
    if order > n and n > 0:
        raise ValueError(f"order {order} exceeds vertex count {n}")
    check_seed(seed)
    rng = SplitMix64(seed)
    edges = [e for e in itertools.combinations(range(n), order) if rng.next_bit()]
    return Hypergraph._from_canonical(order, n, edges)


def build_h3(G: Hypergraph) -> Hypergraph:
    """Lift a pair graph to the 3-graph of the asymmetric rule.

    For i < j < k the triple is an edge iff ij and ik are present and jk
    is absent.  This is ``build_hk(G, 3)``.
    """
    return build_hk(G, 3)


def build_hk(G: Hypergraph, k: int) -> Hypergraph:
    """Lift a (k-1)-graph to the k-graph of the general asymmetric rule.

    e = {i1 < ... < ik} is an edge iff the (k-1)-subset omitting the
    minimum vertex i1 is absent from the source and every other
    (k-1)-subset is present.

    One pass over the source edges builds ``link[S]``, the bitmask of the
    v with S + {v} a source edge, for each (k-2)-set S.  A source edge
    f = P + (j,) = e - {ik} then gives all its ik at once, as the bits
    above j of ``link[P] & ~link[f[1:]]`` and of every ``link[f - {f[a]}]``
    with 0 < a < k-2: e - {i1} absent, every other (k-1)-subset present.
    At k = 3 this is the pair-graph loop over i < j < ik with ij and i ik
    present and j ik absent.
    """
    if k < 3:
        raise ValueError(f"uniformity must be at least 3, got {k}")
    if G.k != k - 1:
        raise ValueError(f"source order {G.k} does not match k-1 = {k - 1}")
    link: dict[tuple[int, ...], int] = defaultdict(int)
    for f in G.edges:
        for a, v in enumerate(f):
            link[f[:a] + f[a + 1:]] |= 1 << v
    edges = []
    for P, mask in link.items():
        rest = P[1:]
        up = mask >> (P[-1] + 1) << (P[-1] + 1)
        while up:
            low = up & -up
            up ^= low
            j = low.bit_length() - 1
            f = P + (j,)
            cand = up & ~link.get(rest + (j,), 0)
            for a in range(1, k - 2):
                cand &= link[f[:a] + f[a + 1:]]
            while cand:
                low = cand & -cand
                cand ^= low
                edges.append(f + (low.bit_length() - 1,))
    return Hypergraph._from_canonical(k, G.n, edges)


# ---------------------------------------------------------------------------
# spectrum report


@dataclass(frozen=True)
class SpectrumReport:
    """Per-length tight-cycle witnesses for a lifted k-graph, with a verdict.

    ``witnesses`` maps each scanned length to ``find_tight_cycle``'s
    witness or None; ``found``, ``offending`` (found, not divisible by k)
    and the verdict (PASS iff nothing offends) are read off it.
    """

    k: int
    n: int
    s_max: int
    witnesses: dict[int, Optional[tuple[int, ...]]] = field(hash=False)

    @property
    def found(self) -> dict[int, bool]:
        return {s: w is not None for s, w in self.witnesses.items()}

    @property
    def offending(self) -> tuple[int, ...]:
        return tuple(s for s, hit in sorted(self.found.items()) if hit and s % self.k != 0)

    @property
    def verdict(self) -> str:
        return "FAIL" if self.offending else "PASS"

    def to_csv(self) -> str:
        lines = ["s,cycle_found"]
        lines += [f"{s},{'true' if hit else 'false'}" for s, hit in sorted(self.found.items())]
        return "\n".join(lines) + "\n"


def mod_spectrum_report(H: Hypergraph, s_max: int) -> SpectrumReport:
    """Scan all cycle lengths up to s_max, keeping each witness, and judge the mod-k invariant."""
    return SpectrumReport(k=H.k, n=H.n, s_max=s_max, witnesses=cycle_witnesses(H, s_max))


# ---------------------------------------------------------------------------
# partial Steiner triple packings


@dataclass(frozen=True)
class TriplePacking:
    """A set of triples over [0, t) in which every pair lies in at most one."""

    t: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for tr in self.triples:
            if len(tr) != 3 or list(tr) != sorted(set(tr)):
                raise ValueError(f"malformed triple {tr}")
            if tr[0] < 0 or tr[2] >= self.t:
                raise ValueError(f"triple {tr} outside [0, {self.t})")
            for pair in itertools.combinations(tr, 2):
                if pair in seen:
                    raise ValueError(f"pair {pair} covered twice")
                seen.add(pair)

    def __len__(self) -> int:
        return len(self.triples)


def greedy_steiner_packing(t: int, seed: int) -> TriplePacking:
    """Randomized greedy triple packing with one improvement sweep.

    The seed shuffles the lexicographic ranks 0 .. C(t, 3) - 1 of the
    triples into ``perm``, and ``pos`` inverts it, mapping a rank to its
    position.  The greedy takes triples in position order whenever all
    three pairs are still free.  It walks the first positions, unranking
    each, and then stops walking: every triple that still fits is a
    triangle of the graph of uncovered pairs, so the rest of the greedy
    runs over those triangles alone, sorted by position.  That equals the
    full walk because cover only grows: a triple that fits at the cut also
    fitted at its own position, so it lies past the cut (one before was
    taken there), and a triple that does not fit at the cut never fits
    later.  The cut changes the work, not the packing.

    A single pass then tries, for each chosen triple in that order, to
    lift it out and fit two leftover triples instead; profitable swaps are
    kept.  Only triples sharing a pair {x, y} with the lifted one can come
    free, and they are read off the bitmask of vertices w with {x, w} and
    {y, w} both uncovered; the earliest free one is taken, then the
    earliest that still fits beside it.

    No triple list is built: the two rank arrays hold 8 bytes a triple.
    Ranks and positions are C ints, so t stops at 2,345; beyond it this
    raises ``ValueError``.
    """
    if t < 3:
        raise ValueError(f"need at least 3 points, got {t}")
    check_seed(seed)
    n3 = math.comb(t, 3)
    if n3 > 1 << 8 * array("i").itemsize - 1:
        raise ValueError(f"t = {t} has {n3} triples, too many to rank in a C int")
    perm = array("i", range(n3))
    SplitMix64(seed).shuffle(perm)
    pos = array("i", [0]) * n3
    for i, r in enumerate(perm):
        pos[r] = i
    # rank of a < b < c is head[a] - mid[b] + c, the closed-form count of
    # lexicographically smaller triples.  The triples led by a start at
    # rank start[a], those led by a, b at head[a] + neg_c2[b]; unranking
    # bisects the two ascending lists
    start = [n3 - math.comb(t - a, 3) for a in range(t)]
    head = [start[a] + math.comb(t - a - 1, 2) for a in range(t)]
    neg_c2 = [-math.comb(t - b, 2) for b in range(t)]
    mid = [math.comb(t - b, 2) + b + 1 for b in range(t)]

    # bit w of cover[v] is set when the pair {v, w} is covered
    cover = [0] * t

    def fits(tr: tuple[int, int, int]) -> bool:
        a, b, c = tr
        return not (cover[a] & (1 << b | 1 << c) or cover[b] >> c & 1)

    def flip(tr: tuple[int, int, int]) -> None:
        a, b, c = tr
        cover[a] ^= 1 << b | 1 << c
        cover[b] ^= 1 << a | 1 << c
        cover[c] ^= 1 << a | 1 << b

    chosen: list[tuple[int, tuple[int, int, int]]] = []
    # any cut gives the same packing; past 1/32 of the positions, 7,779 of
    # the 156,849 triples still fit at t = 99 for seed derive_seed(0, 99)
    cut = min(n3, max(64, n3 // 32))
    for i in range(cut):
        r = perm[i]
        a = bisect_right(start, r) - 1
        b = bisect_right(neg_c2, r - head[a]) - 1
        tr = (a, b, r - head[a] + mid[b])
        if fits(tr):
            chosen.append((i, tr))
            flip(tr)

    # the triples that still fit are the triangles a < b < c of uncovered
    # pairs; up holds the vertices above a (then above b) paired freely with a
    full = (1 << t) - 1
    rest = []
    for a in range(t - 2):
        up = full & ~cover[a] & -(2 << a)
        while up:
            low = up & -up
            up ^= low
            b = low.bit_length() - 1
            base = head[a] - mid[b]
            bits = up & ~cover[b]
            while bits:
                low = bits & -bits
                bits ^= low
                c = low.bit_length() - 1
                rest.append((pos[base + c], (a, b, c)))
    rest.sort()
    for i, tr in rest:
        if fits(tr):
            chosen.append((i, tr))
            flip(tr)

    kept = dict(chosen)
    for i, tr in chosen:
        flip(tr)
        # free triples share exactly one pair {x, y} with tr; z is its third
        # vertex, so tr itself is left out
        free = []
        a, b, c = tr
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            bits = full & ~(cover[x] | cover[y] | 1 << x | 1 << y | 1 << z)
            while bits:
                low = bits & -bits
                bits ^= low
                u, v, w = sorted((x, y, low.bit_length() - 1))
                free.append((pos[head[u] - mid[v] + w], (u, v, w)))
        if free:
            free.sort()
            first = free[0]
            flip(first[1])
            second = next((f for f in free[1:] if fits(f[1])), None)
            if second is not None:
                flip(second[1])
                del kept[i]
                kept.update((first, second))
                continue
            flip(first[1])
        flip(tr)

    return TriplePacking(t=t, triples=tuple(sorted(kept.values())))


# ---------------------------------------------------------------------------
# union-bound threshold


def union_bound_threshold(n: int) -> int:
    """Least t >= 3 making the union bound go below 1.

    Evaluates log C(n, t) + (t^2 / 7) * log(7/8) in log space, with log
    C(n, t) kept as a running sum of log(n - i) - log(i + 1).  Log-gamma
    differences would cancel: lgamma(n + 1) - lgamma(n - t + 1) loses
    every digit once n reaches about 10^16, and lgamma overflows past the
    float range.  ``math.log`` takes an int of any size, so n is unbounded.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    log78 = math.log(7.0 / 8.0)
    logc = 0.0
    t = 0
    while t < n:
        logc += math.log(n - t) - math.log(t + 1)
        t += 1
        if t >= 3 and logc + (t * t / 7.0) * log78 < 0:
            return t
    return 3  # n = 2: C(2, 3) = 0; from n = 3 on, t = n returns above


# ---------------------------------------------------------------------------
# independence experiment


@dataclass(frozen=True)
class AlphaRow:
    n: int
    seed: int
    alpha: Optional[int]
    alpha_over_log2n: Optional[float]
    error: Optional[str] = None


ALPHA_CSV_HEADER = "n,seed,alpha,alpha_over_log2n"


def alpha_experiment(
    n_values: Sequence[int],
    seeds_per_n: int,
    base_seed: int,
    cap: int = 64,
    max_threads: int = 1,
) -> list[AlphaRow]:
    """Exact independence numbers of lifted 3-graphs over a seed grid.

    Each (n, seed-index) cell derives its own child seed from the base
    seed, so the row set is identical however cells are scheduled.  Rows
    for n beyond the exact-search cap report an error instead of a value.
    """
    check_seed(base_seed)
    cells = [
        (n, derive_seed(base_seed, n, idx))
        for n in n_values
        for idx in range(seeds_per_n)
    ]

    def run(cell) -> AlphaRow:
        n, child = cell
        if n < 2:
            return AlphaRow(n, child, None, None, error=f"n={n} too small")
        if n > cap:
            return AlphaRow(n, child, None, None, error=f"n={n} exceeds cap {cap}")
        H = build_h3(sample_graph(2, n, child))
        a = independence_number_exact(H, cap=cap)
        return AlphaRow(n, child, a, a / math.log2(n))

    if max_threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_threads) as pool:
            rows = list(pool.map(run, cells))
    else:
        rows = [run(c) for c in cells]
    return rows


def alpha_rows_to_csv(rows: Sequence[AlphaRow]) -> str:
    lines = [ALPHA_CSV_HEADER]
    for r in rows:
        if r.alpha is None:
            lines.append(f"{r.n},{r.seed},,")
        else:
            lines.append(f"{r.n},{r.seed},{r.alpha},{r.alpha_over_log2n:.6f}")
    return "\n".join(lines) + "\n"
