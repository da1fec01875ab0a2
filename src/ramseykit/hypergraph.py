"""k-uniform hypergraphs with tight-cycle detection and exact independence search.

Vertices are the integers ``0..n-1``.  Edges are stored as ascending
k-tuples, so any permutation of the same k vertices produces the identical
stored edge.  Vertex sets are plain ascending tuples of ints throughout.

A tight cycle on ``s >= k`` cyclically ordered vertices has one edge per
window of ``k`` consecutive vertices.  For ``s == k`` the windows collapse
to a single k-set, so "contains a tight cycle of length k" degenerates to
plain edge existence; this module implements that reading.

Each length s is decided in one place, :func:`find_tight_cycle`.  Absence
of a tight cycle of length s >= k+1 is proved in one of two ways.  The
*period certificate*: the tight walks of H live in the digraph on
ordered (k-1)-tuples with one arc (x1..x_{k-1}) -> (x2..x_k) for each
ordering of each edge, a tight cycle of length s is a closed walk of
length s in it, and a closed walk inside one strongly connected component
has a length divisible by that component's period (Denardo 1977).  A
length that no component period divides is therefore absent.  Every
other length s gets its own exhaustive tight-path search, bounded at
depth s; it stops at the first closing path, which is the witness.

The certificate is asked one question, ``Hypergraph._admits(s)``: does
some period divide s?  A component's period is the gcd of k and of the
level differences along its arcs, and while the component is walked its
running gcd is a multiple of that period.  So the first running gcd that
divides s admits s, and the walk stops there; the gcd is kept, and a
later length it divides is admitted without a walk.  Only a walk that
runs to the end stores the period set, and it is the only way a length
is refused, so "absent" keeps its certificate.  On a host with a
period-1 component the walk stops as soon as it meets that component.

Both read the digraph from one cached link table over bitmasks: each
(k-1)-subset of an edge, as a vertex mask, maps to the mask of the
vertices completing it.  The search walks on an explicit stack, so a
length has no recursion limit.  Its last three steps are filtered by
the windows that close the cycle.  Every window that wraps around holds
the last vertex, so the closing vertices are the AND of those windows'
links, and the lowest is the witness; the second last vertex must lie
in the links of the last window's closers, and for k >= 3 the third
last in the links of the pairs of closers and second-last vertices.
That third filter is built the first time a path reaches its depth, as
most first windows never get there.  The mirror rule bounds the last
k-1 vertices from below: with the anchor they form the first window of
the reversed cycle, so one below the first window's second vertex would
put that window earlier in ``H.edges``, where the search would already
have returned.  The filters and the rule drop only paths that close no
cycle before the first closing path, and the candidates are still taken
in ascending order, so the search returns the witness of the plain
search.

The lengths a spectrum scans, 4 (k for k != 3) up to min(s_max, n), have
one home, :func:`scanned_lengths`; :func:`cycle_witnesses` maps each to
its witness or None, and every spectrum is read off that map.

The independence number comes from one bitmask branch and bound for
every k: choosing the vertex v blocks the open w of each edge in which w
is the largest vertex, v the second largest and the rest already chosen,
and each node keeps these blocked pairs, filed in both directions, as
conflict rows built from rows cached per chosen vertex.  Its bounds are
Östergård's Russian doll (the independence numbers of the vertex
suffixes, solved from the last vertex back) and a greedy clique cover of
the conflict graph on the open pool, both read for a child in its parent
before the child is built.  The cover is built from the top down: each
class starts at the highest uncovered vertex, which is then its largest
member, so the classes started at or above a vertex cover the pool's
suffix from it on their own, and their count bounds that suffix.

Each input is checked once.  ``Hypergraph(k, n, edges)`` sorts and
checks every edge it is given and drops repeats.  The package's own
builders (``complete``, the random source and lift in ``construction``,
``blowup`` and ``clone_vertex`` in ``homomorphism``) emit distinct
ascending k-tuples inside range(n) by construction and hand them
straight to storage, which checks only k >= 2 and n >= 0.  So does
:func:`from_text`, after checking each line itself.  :func:`tight_cycle`
takes the checked path, because its windows are unsorted and collapse
into one edge at s = k.

The text format understood by :func:`from_text` / :func:`to_text`:
optional ``#`` comment lines, then a ``k n`` header line, then one edge
per line as k ascending space-separated 0-based vertex ids.  Writers emit
edges in lexicographic order; readers reject malformed lines with
line-numbered errors.
"""

from __future__ import annotations

import itertools
import math
from operator import or_
from typing import Iterable, Optional


class Hypergraph:
    """Immutable k-uniform hypergraph on vertex set range(n).

    The constructor takes edges in any vertex order, with repeats, and
    checks each one; ``_from_canonical`` is the package's unchecked way in
    for edges its builders and :func:`from_text` already guarantee.  Both
    end in ``_store``, which checks k and n and sorts the edges.
    """

    __slots__ = (
        "k", "n", "edges", "_edge_set", "_links_cache", "_periods_cache",
        "_admit_gcd",
    )

    def __init__(self, k: int, n: int, edges: Iterable[Iterable[int]] = ()):
        self._store(k, n, _checked_edges(k, n, edges))

    @classmethod
    def _from_canonical(cls, k: int, n: int, edges: Iterable[tuple[int, ...]]) -> Hypergraph:
        """The package's way in for edges known to be distinct ascending k-tuples in range(n)."""
        H = cls.__new__(cls)
        H._store(k, n, edges)
        return H

    def _store(self, k: int, n: int, edges: Iterable[tuple[int, ...]]) -> None:
        # edges is read only after the k and n checks, so those come first
        # on the checked path too
        if k < 2:
            raise ValueError(f"uniformity must be at least 2, got {k}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        self.k = k
        self.n = n
        self.edges = tuple(sorted(edges))
        self._edge_set = frozenset(self.edges)
        self._links_cache = None
        self._periods_cache = None
        self._admit_gcd = 0

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.k, self.n, self._edge_set) == (other.k, other.n, other._edge_set)

    def __hash__(self) -> int:
        return hash((self.k, self.n, self._edge_set))

    def __repr__(self) -> str:
        return f"Hypergraph(k={self.k}, n={self.n}, edges={len(self.edges)})"

    def has_edge(self, *vertices: int) -> bool:
        return tuple(sorted(vertices)) in self._edge_set

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg

    def _links(self) -> dict[int, int]:
        """Map the vertex mask of each (k-1)-subset of an edge to the mask of
        the vertices completing it: the out-arcs of the tight-walk digraph."""
        if self._links_cache is None:
            links: dict[int, int] = {}
            get = links.get
            for e in self.edges:
                whole = 0
                for v in e:
                    whole |= 1 << v
                for v in e:
                    bit = 1 << v
                    key = whole ^ bit
                    links[key] = get(key, 0) | bit
            self._links_cache = links
        return self._links_cache

    def periods(self) -> frozenset[int]:
        """Periods of the strongly connected components of the tight-walk digraph.

        The digraph has one arc (x1..x_{k-1}) -> (x2..x_k) per ordering of
        each edge, and its nodes are the ordered (k-1)-tuples inside edges:
        the out-arcs of a node u with vertex mask m go to u[1:] + (w,) for
        each bit w of ``_links()[m]``.  Every period divides k, because the
        k rotations of one ordered edge form a closed walk.  A tight cycle
        of length s >= k+1 needs a period dividing s.

        Every arc lies on that closed walk, so the strongly connected
        components are exactly the sets reached by a breadth-first search
        from a not yet visited node.  A component's period is the gcd of
        k and of level[u] + 1 - level[v] over its arcs u -> v (Denardo
        1977; k adds nothing, as the period divides it).  The search goes
        one level at a time, each node queued with its mask.  Its roots are
        the orderings of e less its largest vertex, for each edge e: the
        closed walk through an ordering of e passes one of them, so every
        component holds a root.  The set is cached; ``_admits`` runs the
        same walk for one length and may stop before it ends.
        """
        if self._periods_cache is None:
            self._walk_periods(0)
        return self._periods_cache

    def _admits(self, s: int) -> bool:
        """True iff some component period divides s (s >= 1).

        Reads the cached period set if there is one.  Otherwise the running
        gcd kept by an earlier walk that stopped early, or a new walk, may
        admit s; a walk that ends instead has cached the set, which is read.
        """
        if self._periods_cache is None:
            kept = self._admit_gcd
            if kept and s % kept == 0 or self._walk_periods(s):
                return True
        return any(s % p == 0 for p in self._periods_cache)

    def _walk_periods(self, s: int) -> bool:
        """The period walk of ``periods``; True once a running gcd divides s.

        While a component is walked, its running gcd (from k down) is a
        multiple of the component's final period, so the first running gcd
        that divides s proves that a period divides s: the walk keeps that
        gcd in ``_admit_gcd`` and stops.  A walk that ends caches the
        period set and returns False; s = 0 never stops it.
        """
        k = self.k
        links = self._links()
        periods = set()
        level: dict[tuple[int, ...], int] = {}
        for e in self.edges:
            for root in itertools.permutations(e[:-1]):
                if root in level:
                    continue
                period = k  # the running gcd starts at k, which the period divides
                if s and not s % period:
                    self._admit_gcd = period
                    return True
                level[root] = depth = 0
                frontier = [(root, sum(1 << v for v in root))]
                while frontier:
                    depth += 1
                    queue = frontier
                    frontier = []
                    for u, mask in queue:
                        head = u[1:]
                        head_mask = mask ^ 1 << u[0]
                        c = links[mask]
                        while c:
                            low = c & -c
                            c ^= low
                            v = head + (low.bit_length() - 1,)
                            seen = level.get(v)
                            if seen is None:
                                level[v] = depth
                                frontier.append((v, head_mask | low))
                            elif seen != depth:
                                g = math.gcd(period, depth - seen)
                                if g != period:
                                    period = g
                                    if s and not s % g:
                                        self._admit_gcd = g
                                        return True
                periods.add(period)
        self._periods_cache = frozenset(periods)
        return False


def _checked_edges(k: int, n: int, edges: Iterable[Iterable[int]]):
    """Yield each distinct edge once as an ascending tuple, checked against k and n."""
    seen = set()
    for raw in edges:
        e = tuple(sorted(raw))
        if len(e) != k or len(set(e)) != k:
            raise ValueError(f"edge {e} does not have {k} distinct vertices")
        if e[0] < 0 or e[-1] >= n:
            raise ValueError(f"edge {e} has a vertex outside [0, {n})")
        if e not in seen:
            seen.add(e)
            yield e


def complete(k: int, n: int) -> Hypergraph:
    """The complete k-graph on n vertices: all C(n, k) possible edges."""
    return Hypergraph._from_canonical(k, n, itertools.combinations(range(n), k))


def tight_cycle(k: int, s: int) -> Hypergraph:
    """The tight cycle on s vertices: the s cyclic windows of k consecutive residues.

    For s == k all windows coincide and the result is a single edge.
    """
    if s < k:
        raise ValueError(f"cycle length {s} is below the uniformity {k}")
    windows = (tuple((i + j) % s for j in range(k)) for i in range(s))
    return Hypergraph(k, s, windows)


def find_tight_cycle(H: Hypergraph, s: int) -> Optional[tuple[int, ...]]:
    """Search for a tight cycle witness: s distinct vertices, cyclically ordered.

    The one place a length is decided.  Returns the witness with the
    cycle's minimum vertex first, or None.  Beyond s == k (an edge) and
    s > n (None), None comes from the period certificate when no period
    of ``H.periods()`` divides s, and otherwise from the tight-path search
    bounded at depth s, whose first closing path is the witness.  The
    certificate is read through ``H._admits(s)``, whose period walk stops
    at the first running gcd that divides s: that gcd is a multiple of
    some component's period, so that period divides s too.
    """
    k = H.k
    if s < k:
        raise ValueError(f"cycle length {s} is below the uniformity {k}")
    if s > H.n:
        return None
    if s == k:
        return H.edges[0] if H.edges else None
    if not H._admits(s):
        return None
    return _scan_cycles(H, s)


def contains_tight_cycle(H: Hypergraph, s: int) -> bool:
    """True iff H contains a tight cycle on s distinct vertices.

    False is proved by the period certificate when no component period of
    ``H.periods()`` divides s, and otherwise by the exhaustive search.  A
    False from the certificate walks the whole digraph and caches the
    period set; a True may leave it uncached (see ``find_tight_cycle``).
    """
    return find_tight_cycle(H, s) is not None


def scanned_lengths(H: Hypergraph, s_max: int) -> range:
    """The lengths a spectrum up to s_max scans: from 4 for 3-graphs and
    from k (edge existence) otherwise, up to min(s_max, n)."""
    return range(4 if H.k == 3 else H.k, min(s_max, H.n) + 1)


def cycle_witnesses(H: Hypergraph, s_max: int) -> dict[int, Optional[tuple[int, ...]]]:
    """Each length of ``scanned_lengths(H, s_max)`` mapped to ``find_tight_cycle``'s answer."""
    return {s: find_tight_cycle(H, s) for s in scanned_lengths(H, s_max)}


def cycle_spectrum(H: Hypergraph, s_max: int) -> set[int]:
    """All tight-cycle lengths present in H up to s_max: the lengths of
    ``scanned_lengths`` with a witness in ``cycle_witnesses``."""
    return {s for s, w in cycle_witnesses(H, s_max).items() if w is not None}


def _scan_cycles(H: Hypergraph, s: int) -> Optional[tuple[int, ...]]:
    """The first tight cycle of length s in depth-first order, or None.

    ``s`` must lie in [k+1, n].  Paths grow from an anchored first window
    (the anchor is the cycle's minimum vertex, which kills rotational
    duplicates, so the vertices up to it start out visited) through the
    link table, to depth s-1 and no further, on an explicit stack.  The
    last k-1 vertices are kept as a mask, and the candidates at a depth
    are the unvisited bits of their link, taken lowest first: the
    vertices completing a (k-1)-set in ascending order, as the edges are
    sorted.

    The last three steps are filtered by the closing windows.  Each of the
    k-1 windows that wrap around holds v_{s-1}, so the vertices that close
    the path are the AND of the links of those windows less v_{s-1}, and
    the lowest of them is the witness.  The last window less v_{s-1} is
    v_0..v_{k-2}, so v_{s-1} lies in Z = links[v_0..v_{k-2}], and a first
    window with Z empty is skipped.  The second last is v_{s-2}, v_{s-1},
    v_0..v_{k-3}, so v_{s-2} lies in Y, the OR of links[v_0..v_{k-3}, z]
    over z in Z, which narrows depth s-2 when that depth is free (a first
    window whose Y holds no unvisited vertex is skipped).  For k >= 3 the
    third last is v_{s-3}, v_{s-2}, v_{s-1}, v_0..v_{k-4}, so depth s-3,
    when free and past the first window, lies in the OR of
    links[v_0..v_{k-4}, y, z] over z in Z and the unvisited y in
    links[v_0..v_{k-3}, z]; it is built the first time the search reaches
    depth s-3 with a candidate, as most first windows never get there.

    The mirror rule: with m the least of v_1..v_{k-1}, every vertex at
    positions s-k+1..s-1 exceeds m.  Those positions and v_0 form the
    first window of the reversed cycle, which has the same anchor; a
    vertex there below m would put that window earlier in ``H.edges``,
    whose search would have returned a closing path already.  m is
    ``first_window[1]``, so the mask is one shift a first window, not one
    a permutation; it applies to Z, to Y when k >= 3 (at k = 2, v_{s-2}
    is not in that window) and to the free depths from s-k+1 on.

    Every filter drops only paths that close no cycle before the first
    closing path, and the candidates are still taken in ascending order,
    so the witness is that of the plain search.
    """
    k = H.k
    get = H._links().get
    last = s - 1
    narrow = s - 2 if s - 2 >= k else -1
    third = s - 3 if k >= 3 and s - 3 >= k else -1
    mirror = max(k, s - k + 1)  # the first free depth the mirror rule masks
    path = [0] * s
    keys = [0] * s
    cands = [0] * s
    sieve = [-1] * s  # the mask on the candidates at each free depth
    for first_window in H.edges:
        anchor = first_window[0]
        whole = 0
        for v in first_window:
            whole |= 1 << v
        start = (2 << anchor) - 1 | whole  # the first window and every vertex below it
        high = -(2 << first_window[1])  # the vertices above m
        ahead = high & ~start
        behind = ahead if k >= 3 else ~start  # where v_{s-2} may lie
        for perm in itertools.permutations(first_window[1:]):
            head = whole ^ 1 << perm[-1]
            closers = get(head, 0) & ahead
            if not closers:
                continue
            visited = start
            path[0] = anchor
            path[1:k] = perm
            if narrow >= 0:
                base = head ^ 1 << path[k - 2]
                near = 0
                z = closers
                while z:
                    low = z & -z
                    near |= get(base | low, 0)
                    z ^= low
                near &= behind
                if not near:
                    continue
                sieve[narrow] = near
                if mirror < narrow:
                    sieve[mirror:narrow] = [high] * (narrow - mirror)
                trio = -1  # the third closing filter, not yet built
            key = head ^ 1 << anchor | 1 << path[k - 1]
            d = k - 1
            while True:
                if d + 1 == last:
                    c = get(key, 0) & closers & ~visited
                    # each wraparound window less v_{s-1} is the one before
                    # it less its first vertex, plus the next from the front
                    window = key
                    for j in range(1, k - 1):
                        if not c:
                            break
                        window ^= 1 << path[last - k + j] | 1 << path[j - 1]
                        c &= get(window, 0)
                    if c:
                        path[last] = (c & -c).bit_length() - 1
                        return tuple(path)
                else:
                    d += 1
                    keys[d] = key
                    c = get(key, 0) & ~visited & sieve[d]
                    if d == third and c:
                        if trio < 0:
                            front = base ^ 1 << path[k - 3]  # v_0..v_{k-4}
                            trio = _third_closers(get, closers, base, front, behind)
                        c &= trio
                    cands[d] = c
                # advance to the next candidate, backtracking past exhausted depths
                while d >= k and not cands[d]:
                    d -= 1
                    visited ^= 1 << path[d]
                if d < k:
                    break
                c = cands[d]
                low = c & -c
                cands[d] = c ^ low
                if d + 1 < last:  # v_{s-2} lies in key, which its link excludes
                    visited |= low
                path[d] = low.bit_length() - 1
                key = keys[d] ^ 1 << path[d - k + 1] ^ low
    return None


def _third_closers(get, closers: int, base: int, front: int, behind: int) -> int:
    """The OR of links[front, y, z] over z in ``closers`` and y in
    links[base, z] & ``behind``: where v_{s-3} may lie (front is
    v_0..v_{k-4}, base is v_0..v_{k-3})."""
    out = 0
    while closers:
        z = closers & -closers
        closers ^= z
        ys = get(base | z, 0) & behind
        while ys:
            y = ys & -ys
            ys ^= y
            out |= get(front | y | z, 0)
    return out


def independence_number_exact(H: Hypergraph, cap: int = 64) -> int:
    """Exact maximum independent set size via a Russian-doll branch and bound.

    The vertices are relabelled by decreasing degree and the search always
    branches on the lowest open label, so every chosen vertex lies below
    the branch vertex v and every open one above it.  Choosing v blocks an
    open w iff some edge has w as its largest vertex, v as its second
    largest, and all its other vertices chosen.  Each edge is filed under
    its third-largest vertex a with the mask of its vertices below a; when
    a is chosen it contributes a row: for each filed edge whose lower
    vertices are all chosen, ``row[v]`` gets w and ``row[w]`` gets v.
    Those lower vertices are decided before a and stay fixed while a is
    chosen, so the row is cached on the chosen part of the mask of lower
    vertices a's edges name: at k=3 that part is empty and each vertex has
    one fixed row.  At k=2 an edge blocks its larger vertex once its
    smaller one is chosen, so the edges form one base row, filed both ways
    too, that is always in force.

    Each node keeps the conflict rows ``conf``, the union of the base row
    and the rows of its chosen vertices: ``conf[x]`` is the mask of the
    open w that cannot join x, given the chosen set, because some edge
    consists of x, w and chosen vertices.  A child ORs the row of its
    branch vertex into its parent's list, and the vertices blocked by
    choosing v are those of ``conf[v]`` in the pool, which holds only
    vertices above v.

    The bound is Östergård's (2002): c[i] is alpha of the labels i..n-1,
    solved from n-1 down.  Suffix i only asks for a set containing i that
    beats c[i+1], which is the most it can do since c[i] <= c[i+1] + 1, and
    it stops at the first one.  On top of it each node covers its open
    pool by greedy cliques of the conflict graph (the MCQ/BBMC colouring
    bound of Tomita and of San Segundo), from the top down: a class starts
    at the highest uncovered vertex, its founder, and keeps adding the
    highest uncovered vertex in the ``conf`` of every member so far, so
    every two members conflict.  Each member joins below the ones before
    it, so a class's founder is its largest member; and as the class grows
    downward it reads the conflicts of each member with lower vertices,
    which is why every blocked pair is filed in both directions.  An
    independent extension holds at most one vertex of a class.  The
    classes that meet the pool's suffix from v are exactly those founded at
    or above v: a class founded below v lies wholly below it, and each
    vertex of the suffix lies in a class whose founder is at least that
    vertex.  So those classes are a clique cover of the suffix by itself,
    and their number, ``(tops >> v).bit_count()`` over the mask ``tops``
    of founders, bounds what the suffix can add.  A node with d chosen
    vertices and lowest open label v is pruned when d + c[v] or d plus
    that number is at most the best.

    A child's first check is read in its parent, before the child is
    built.  Its pool is ``sub = pool & ~conf[v]``; the parent tests c at
    the lowest vertex of sub and covers sub through ``conf[x] | row[x]``,
    and only a child that passes both gets its own conflict rows and is
    called with those classes, so it never covers its pool again.  The
    cover stops early, as a prune, once the classes found plus the
    vertices left uncovered are at most what the child must beat.  A node
    whose chosen set already ties the best improves on it with any open
    vertex, so it raises the best itself instead of building a child.
    None of this changes the branching order, the classes or the answer.
    Instances above ``cap`` vertices are refused since the search is
    worst-case exponential.
    """
    n = H.n
    if n > cap:
        raise ValueError(f"instance too large: n={n} exceeds the cap {cap}")
    deg = H.degrees()
    rank = [0] * n
    for i, v in enumerate(sorted(range(n), key=lambda v: (-deg[v], v))):
        rank[v] = i
    base = [0] * n
    filed: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    mention = [0] * n
    for e in H.edges:
        *lower, v, w = sorted(rank[u] for u in e)
        if not lower:
            base[v] |= 1 << w
            base[w] |= 1 << v
            continue
        a = lower.pop()
        below = sum(1 << u for u in lower)
        filed[a].append((below, v, w))
        mention[a] |= below
    cache: list[dict[int, list[int]]] = [{} for _ in range(n)]
    c = [0] * n
    best = 0

    def cover(pool: int, conf: list[int], row: list[int], room: int) -> int:
        """The class founders of pool's top-down greedy clique cover under
        ``conf | row``, as one mask.

        Returns 0 as soon as the classes found plus the vertices still
        uncovered are at most ``room``, since the cover can then not beat it.
        """
        tops = 0
        left = pool
        while left.bit_count() > room:
            if not left:
                return tops
            x = left.bit_length() - 1
            top = 1 << x
            tops |= top
            left ^= top
            cand = (conf[x] | row[x]) & left
            while cand:
                x = cand.bit_length() - 1
                left ^= 1 << x
                cand &= conf[x] | row[x]
            room -= 1  # so the loop test reads classes + uncovered > room
        return 0

    def grow(pool: int, chosen: int, depth: int, conf: list[int], tops: int) -> bool:
        """Look for an independent set of size best+1; True once found.

        ``tops`` are the class founders of the pool's cover, found by the parent.
        """
        nonlocal best
        room = best - depth
        if not room:  # the pool is never empty, and any open vertex improves
            best += 1
            return True
        while pool:
            v = (pool & -pool).bit_length() - 1
            if c[v] <= room or (tops >> v).bit_count() <= room:
                return False
            pool ^= 1 << v
            chosen_v = chosen | 1 << v
            key = chosen_v & mention[v]
            row = cache[v].get(key)
            if row is None:
                row = cache[v][key] = [0] * n
                for below, x, w in filed[v]:
                    if below & key == below:
                        row[x] |= 1 << w
                        row[w] |= 1 << x
            sub = pool & ~conf[v]
            if not sub or c[(sub & -sub).bit_length() - 1] < room:
                continue
            sub_tops = cover(sub, conf, row, room - 1)
            if sub_tops and grow(sub, chosen_v, depth + 1,
                                 list(map(or_, conf, row)), sub_tops):
                return True
        return False

    no_row = [0] * n
    try:
        for i in range(n - 1, -1, -1):
            c[i] = best + 1  # the most suffix i can reach, so its root is searched
            pool = -1 << i & ((1 << n) - 1)
            tops = cover(pool, base, no_row, best)
            if tops:
                grow(pool, 0, 0, base, tops)
            c[i] = best
        return best
    finally:
        grow = None  # break the closure's self-reference, a reference cycle


# ---------------------------------------------------------------------------
# text format


def to_text(H: Hypergraph) -> str:
    lines = [f"{H.k} {H.n}"]
    lines.extend(" ".join(map(str, e)) for e in H.edges)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Hypergraph:
    k = n = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer token in {line!r}") from None
        if k is None:
            if len(values) != 2:
                raise ValueError(f"line {lineno}: header must be 'k n', got {line!r}")
            k, n = values
            if k < 2 or n < 0:
                raise ValueError(f"line {lineno}: invalid header k={k} n={n}")
            continue
        if len(values) != k:
            raise ValueError(f"line {lineno}: expected {k} vertices, got {len(values)}")
        if any(values[i] >= values[i + 1] for i in range(k - 1)):
            raise ValueError(f"line {lineno}: vertices not strictly ascending")
        if values[0] < 0 or values[-1] >= n:
            raise ValueError(f"line {lineno}: vertex outside [0, {n})")
        e = tuple(values)
        if e in seen:
            raise ValueError(f"line {lineno}: duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    if k is None:
        raise ValueError("missing 'k n' header line")
    return Hypergraph._from_canonical(k, n, edges)


def save(H: Hypergraph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(to_text(H))


def load(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_text(fh.read())
