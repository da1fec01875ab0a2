"""Iterated order-ideal lattices, antichain width, and tower arithmetic.

A poset on p elements stores, per element, the bitmask of everything
less-or-equal to it (its reflexive down-closure).  The tower sequence
starts from two chains of sizes 1 and t-k; each next level is the
lattice of order ideals (down sets) of the previous one, ordered by
containment.  Ideal element numbering is by ascending subset mask, so
every level is reproducible bit for bit.

The fourth level is never materialized for lower-bound purposes: all
2^w subsets of a width-w antichain of level three have distinct
down-closures, so width(level 3) already certifies a 2^w size bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Sequence

DEFAULT_IDEAL_CAP = 10**6


class IdealCapExceeded(Exception):
    """Ideal enumeration outgrew the cap; carries the count reached."""

    def __init__(self, cap: int, partial_count: int):
        super().__init__(
            f"more than {cap} ideals (stopped after {partial_count})"
        )
        self.cap = cap
        self.partial_count = partial_count


class Poset:
    """Finite poset; down[x] is the bitmask of all y with y <= x."""

    __slots__ = ("p", "down")

    def __init__(self, down: Sequence[int]):
        self.p = len(down)
        self.down = tuple(down)
        for x, dx in enumerate(self.down):
            if not (dx >> x) & 1:
                raise ValueError(f"element {x} missing from its own down set")
            if dx >> self.p:
                raise ValueError(f"down set of {x} mentions elements beyond {self.p}")
        for x in range(self.p):
            dx = self.down[x]
            m = dx
            while m:
                y = (m & -m).bit_length() - 1
                m &= m - 1
                if self.down[y] & ~dx:
                    raise ValueError(f"order not transitive at {y} <= {x}")
                if y != x and (self.down[y] >> x) & 1:
                    raise ValueError(f"order not antisymmetric on {x}, {y}")

    def leq(self, x: int, y: int) -> bool:
        return bool((self.down[y] >> x) & 1)

    def less(self, x: int, y: int) -> bool:
        return x != y and self.leq(x, y)

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.down == other.down

    def __hash__(self):
        return hash(self.down)

    def __repr__(self):
        return f"Poset(p={self.p})"


def two_chains(a: int, b: int) -> Poset:
    """Disjoint union of a chain on a elements and a chain on b elements."""
    if a < 0 or b < 0:
        raise ValueError(f"chain sizes must be nonnegative, got {a}, {b}")
    down = []
    for i in range(a):
        down.append((1 << (i + 1)) - 1)
    for j in range(b):
        down.append(((1 << (j + 1)) - 1) << a)
    return Poset(down)


def ideals(P: Poset, cap: int = DEFAULT_IDEAL_CAP) -> list[int]:
    """All order ideals as element masks, ascending.

    Frontier DP along a linear extension: processing elements in
    topological order, every ideal of the prefix either skips the new
    element or adds it when its strict down set is already present.
    """
    topo = sorted(range(P.p), key=lambda x: (P.down[x].bit_count(), x))
    found = [0]
    for x in topo:
        need = P.down[x] & ~(1 << x)
        bit = 1 << x
        grown = [mask | bit for mask in found if need & ~mask == 0]
        found.extend(grown)
        if len(found) > cap:
            raise IdealCapExceeded(cap, len(found))
    found.sort()
    return found


def ideal_lattice(P: Poset, cap: int = DEFAULT_IDEAL_CAP) -> Poset:
    """The poset of all ideals of P ordered by containment."""
    elems = ideals(P, cap)
    down = []
    for mask in elems:
        row = 0
        for j, other in enumerate(elems):
            if other & ~mask == 0:
                row |= 1 << j
        down.append(row)
    return Poset(down)


def build_J(level: int, t: int, k: int, cap: int = DEFAULT_IDEAL_CAP) -> Poset:
    """Level 1 is two chains of sizes 1 and t-k; each next level is the
    ideal lattice of the previous."""
    if level < 1:
        raise ValueError(f"level must be at least 1, got {level}")
    if k < 3:
        raise ValueError(f"uniformity must be at least 3, got {k}")
    if t <= k:
        raise ValueError(f"need t > k, got t={t}, k={k}")
    P = two_chains(1, t - k)
    for _ in range(level - 1):
        P = ideal_lattice(P, cap)
    return P


def _up_masks(P: Poset) -> list[int]:
    """up[x] is the bitmask of all y with x < y."""
    up = [0] * P.p
    for y in range(P.p):
        m = P.down[y] & ~(1 << y)
        while m:
            low = m & -m
            m ^= low
            up[low.bit_length() - 1] |= 1 << y
    return up


def _strict_matching(up: list[int]) -> tuple[list[int], list[int]]:
    """Maximum matching of the strict comparability bipartite graph.

    Lower copy x is joined to upper copy y when x < y, i.e. when bit y of
    ``up[x]`` is set.  Each lower copy in turn roots one search for an
    augmenting path (Kuhn's DFS, iterative, with the visited upper copies
    kept in one ``seen`` mask); its first step takes the lowest free upper
    copy when there is one.  A path rematches only its root and lower
    copies matched before, so every root starts unmatched.  Returns the
    upper copy matched to each lower copy and the lower copy matched to
    each upper copy, -1 where unmatched.
    """
    p = len(up)
    match_of_row = [-1] * p
    match_of_col = [-1] * p
    free = (1 << p) - 1  # upper copies not matched yet
    for root in range(p):
        seen = 0
        rows, cols = [root], []  # the alternating path: rows[i] -> cols[i]
        while rows:
            cand = up[rows[-1]] & ~seen
            if not cand:
                rows.pop()
                if cols:
                    cols.pop()
                continue
            hit = cand & free
            if hit:
                y = (hit & -hit).bit_length() - 1
                cols.append(y)
                free ^= 1 << y
                for x, y in zip(rows, cols):
                    match_of_row[x] = y
                    match_of_col[y] = x
                break
            y = (cand & -cand).bit_length() - 1
            seen |= 1 << y
            cols.append(y)
            rows.append(match_of_col[y])
    return match_of_row, match_of_col


def max_antichain(P: Poset) -> int:
    """Exact width by minimum chain cover: p minus a maximum matching of
    the strict comparability bipartite graph, i.e. the number of lower
    copies left unmatched (Dilworth, via König)."""
    match_of_row, _ = _strict_matching(_up_masks(P))
    return match_of_row.count(-1)


def antichain_witness(P: Poset) -> tuple[int, ...]:
    """A maximum antichain, via the alternating-path vertex cover.

    Each element appears twice in the bipartite graph, as the lower and
    the upper end of its strict relations.  Elements whose lower copy is
    reachable from an unmatched lower copy by an alternating path, and
    whose upper copy is not, avoid the minimum vertex cover entirely, so
    no strict relation can join two of them.  Both reachable sets are the
    same for every maximum matching (Dulmage-Mendelsohn), so the witness
    does not depend on which maximum matching was found.
    """
    p = P.p
    up = _up_masks(P)
    match_of_row, match_of_col = _strict_matching(up)
    in_left = [y == -1 for y in match_of_row]
    in_right = [False] * p
    queue = [x for x in range(p) if in_left[x]]
    while queue:
        x = queue.pop()
        m = up[x]
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            if in_right[y]:
                continue
            in_right[y] = True
            back = match_of_col[y]
            if back != -1 and not in_left[back]:
                in_left[back] = True
                queue.append(back)
    return tuple(x for x in range(p) if in_left[x] and not in_right[x])


def j4_log2_lower_bound(t: int, k: int, cap: int = DEFAULT_IDEAL_CAP) -> int:
    """Exponent w such that level four has at least 2^w elements.

    Distinct subsets of a level-three antichain generate distinct ideals,
    so the width of level three is the certified exponent; level four
    itself is never built.
    """
    return max_antichain(build_J(3, t, k, cap))


# ---------------------------------------------------------------------------
# towers

_EXACT_EXPONENT_CAP = 10**6


@total_ordering
@dataclass(frozen=True)
class SymbolicTower:
    """pending iterated exponentials 2^2^...^base left unevaluated.

    Produced only with base in (10^6, 2^10^6], which makes comparisons
    exact: one more pending exponential always dominates any base in
    range, so (pending, base) compares lexicographically, and any
    symbolic tower exceeds any exactly evaluated value.
    """

    pending: int
    base: int

    def _key(self):
        return (self.pending, self.base)

    def __eq__(self, other):
        if isinstance(other, SymbolicTower):
            return self._key() == other._key()
        if isinstance(other, (int, float)):
            return False
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, SymbolicTower):
            return self._key() < other._key()
        if isinstance(other, (int, float)):
            return False  # symbolic always exceeds an evaluated value
        return NotImplemented

    def __repr__(self):
        return f"SymbolicTower(2^^{self.pending} applied to {self.base.bit_length()}-bit base)"


def tower(height: int, x):
    """Iterated exponential: height 1 gives x, each level adds one 2^.

    Returns an exact int while the next exponent stays within 10^6;
    afterwards a SymbolicTower with exact comparison semantics.  Floats
    are accepted only when integral.
    """
    if height < 1:
        raise ValueError(f"height must be at least 1, got {height}")
    if isinstance(x, float):
        if not x.is_integer():
            raise ValueError(f"non-integer base {x} not supported for towers")
        x = int(x)
    if x < 0:
        raise ValueError(f"negative base {x} not supported for towers")
    val = x
    for step in range(height - 1):
        if val > _EXACT_EXPONENT_CAP:
            return SymbolicTower(pending=height - 1 - step, base=val)
        val = 2**val
    return val
