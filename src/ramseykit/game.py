"""Online builder/painter game whose positions live on binary color labels.

The builder exposes vertices one at a time.  Each new vertex walks the
existing vertices in exposure order carrying a growing color label:
whenever it meets a vertex whose frozen label equals its current label,
that edge is exposed, the painter colors it R or B, and the digit is
appended.  The walk ends at the first unoccupied label, which freezes.
Labels therefore occupy a binary trie, and the edge structure is fully
determined by the labels: (u, v) is exposed iff label(u) is a proper
prefix of label(v), colored by the digit of label(v) at position
|label(u)|.

The builder hunts a red K4-minus (four vertices carrying the five red
edges v1v2, v1v3, v1v4, v2v3, v2v4 in exposure order) against a blue
clique on t-1 vertices.  One incremental rule per colour decides a win
after every single colored edge, in play and in the exhaustive
verifier alike, and the insertion halts mid-walk on a win, so the
resource counts (vertices used, red edges, total edges) include the
winning edge and nothing after it.  The witness is read off the
walker's label by the same rule: for red, the vertices frozen at the
prefix before its first R, at the label less its second and last R,
and at the whole label, plus the walker; for blue, the vertices frozen
at the prefixes before its first t-2 B digits, plus the walker.

The exhaustive verifier is one depth-first search over the painter's
choices that reports a broken resource cap with that branch's
transcript; its memo is a cache keyed on the frozen label set, sound
because every count so far is a function of that set.

Vertices are numbered from 0 in exposure order everywhere, including
transcripts and witnesses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, Optional

from .rng import SplitMix64, check_seed

RED = "R"
BLUE = "B"


class PainterAborted(Exception):
    """An interactive painter ran out of input."""


class GameAborted(Exception):
    """Game stopped before an outcome; carries partial stats and transcript."""

    def __init__(self, stats, transcript):
        super().__init__("game aborted by painter")
        self.stats = stats
        self.transcript = transcript


class SafetyCapReached(Exception):
    """The game exceeded its vertex cap while still running.

    This would contradict the guaranteed builder win, so it is surfaced
    loudly with the offending state attached.
    """

    def __init__(self, state, transcript):
        super().__init__(
            f"game still running after {len(state.labels)} vertices (cap hit)"
        )
        self.state = state
        self.transcript = transcript


class VerificationError(Exception):
    """Exhaustive search found a branch violating the claimed bounds."""

    def __init__(self, message, transcript):
        super().__init__(message)
        self.transcript = transcript


@dataclass
class GameState:
    """Mutable single-owner state of one game.

    The labels describe the game: vertex v's label is its colour digits in
    walk order, the walker's partial label included, and the exposed
    edges are the prefix pairs the module docstring describes.
    """

    t: int
    labels: list[str] = field(default_factory=list)
    status: str = "Running"
    witness: Optional[tuple[int, ...]] = None
    # earliest vertex index per frozen label; duplicates keep the first
    _by_label: dict[str, int] = field(default_factory=dict)

    @property
    def running(self) -> bool:
        return self.status == "Running"


@dataclass(frozen=True)
class GameStats:
    vertices_used: int
    red_edges: int
    total_edges: int
    outcome: str


# painter: callable (state, u, v) -> "R" | "B"
PainterStrategy = Callable[[GameState, int, int], str]


# ---------------------------------------------------------------------------
# the win rule


def _wins_red(label: str, frozen: Container[str]) -> bool:
    """Incremental red check after an R digit was appended.

    The walker completes a red K4-minus iff its label holds exactly two
    R digits and is itself frozen.  Proof: the walker wins iff some
    non-first R position q of its label has the prefix of length q+1
    frozen, since that frozen vertex is the second member of the
    R-subtree of the ancestor at q, whose own label already holds an R.
    When a label gains its second R, either that label is frozen (red
    wins, and the game stops) or no vertex holds it and the walk stops
    there, freezing it.  So no label, walking or frozen, ever holds a
    third R, the R just appended is the only non-first R, and its prefix
    is the whole label.  Exact whenever the check has run after every
    earlier edge.
    """
    return label in frozen and label.count(RED) == 2


def _wins_blue(new_label: str, t: int) -> bool:
    return new_label.count(BLUE) >= t - 2


# ---------------------------------------------------------------------------
# the walk


def insert_vertex(state: GameState, painter: PainterStrategy) -> list[dict]:
    """Expose one new vertex; returns the event records in order.

    The new vertex walks the trie from the empty label: each time its
    current label is frozen on an earlier vertex, that edge is exposed
    and painted, and the color digit extends the label.  The win rule runs
    after every edge; a win sets the witness and freezes the partial
    label immediately.
    """
    if not state.running:
        raise ValueError(f"cannot insert into a finished game ({state.status})")
    v = len(state.labels)
    state.labels.append("")
    by_label = state._by_label
    label = ""
    events: list[dict] = []
    while label in by_label:
        u = by_label[label]
        color = painter(state, u, v)
        if color not in (RED, BLUE):
            raise ValueError(f"painter returned {color!r}, need 'R' or 'B'")
        label += color
        state.labels[v] = label
        events.append({"event": "edge", "u": u, "v": v, "color": color})
        if color == RED and _wins_red(label, by_label):
            state.status = "RedK4Minus"
            p = label.find(RED)
            state.witness = (by_label[label[:p]], by_label[label[:-1]],
                             by_label[label], v)
            break
        if color == BLUE and _wins_blue(label, state.t):
            state.status = "BlueClique"
            blues = [i for i, d in enumerate(label) if d == BLUE][: state.t - 2]
            state.witness = tuple(by_label[label[:i]] for i in blues) + (v,)
            break
    if label not in by_label:
        by_label[label] = v
    events.append({"event": "vertex", "v": v, "label": label})
    if not state.running:
        events.append({"event": "win", "outcome": state.status})
    return events


def game_stats(state: GameState) -> GameStats:
    """Resources read off the labels: each digit of a label is one exposed
    edge, painted in that colour, so red edges are the R digits and total
    edges the sum of the label lengths."""
    return GameStats(
        vertices_used=len(state.labels),
        red_edges=sum(label.count(RED) for label in state.labels),
        total_edges=sum(map(len, state.labels)),
        outcome=state.status,
    )


def run_game(
    t: int, painter: PainterStrategy, safety_cap: int = 10000
) -> tuple[GameStats, list[dict]]:
    """Play until the builder wins; returns exact stats and the transcript.

    Raises SafetyCapReached if the cap is hit while running (which would
    falsify the guaranteed win) and GameAborted if the painter stops
    answering; both carry the partial transcript.
    """
    if t < 3:
        raise ValueError(f"target t must be at least 3, got {t}")
    if safety_cap < 1:
        raise ValueError(f"safety cap must be at least 1, got {safety_cap}")
    state = GameState(t=t)
    transcript: list[dict] = []
    while state.running:
        if len(state.labels) >= safety_cap:
            raise SafetyCapReached(state, transcript)
        try:
            events = insert_vertex(state, painter)
        except PainterAborted:
            transcript.append({"step": len(transcript) + 1, "event": "vertex",
                               "v": len(state.labels) - 1, "label": state.labels[-1]})
            raise GameAborted(game_stats(state), transcript) from None
        for ev in events:
            transcript.append({"step": len(transcript) + 1, **ev})
    return game_stats(state), transcript


def transcript_to_jsonl(transcript: list[dict]) -> str:
    return "".join(json.dumps(rec) + "\n" for rec in transcript)


# ---------------------------------------------------------------------------
# painters


def all_red() -> PainterStrategy:
    return lambda state, u, v: RED


def all_blue() -> PainterStrategy:
    return lambda state, u, v: BLUE


def random_painter(seed: int, p_red: float = 0.5) -> PainterStrategy:
    """Seeded biased coin: one draw per query, R with probability p_red."""
    check_seed(seed)
    if not 0.0 <= p_red <= 1.0:
        raise ValueError(f"p_red must lie in [0, 1], got {p_red}")
    rng = SplitMix64(seed)

    def painter(state, u, v):
        return RED if rng.next_float() < p_red else BLUE

    return painter


def greedy_saver() -> PainterStrategy:
    """Answers B unless that instantly completes the blue clique, else R."""

    def painter(state, u, v):
        would_be_blues = state.labels[v].count(BLUE) + 1
        if 1 + would_be_blues >= state.t - 1:
            return RED
        return BLUE

    return painter


def scripted_painter(colors: Iterable[str]) -> PainterStrategy:
    """Replays a fixed color sequence; raises PainterAborted when exhausted."""
    queue = list(colors)
    pos = [0]

    def painter(state, u, v):
        if pos[0] >= len(queue):
            raise PainterAborted()
        c = queue[pos[0]]
        pos[0] += 1
        return c

    return painter


def interactive(input_stream=None, output_stream=None) -> PainterStrategy:
    """Reads R/B answers from the input stream, re-prompting on bad lines."""
    import sys

    inp = input_stream if input_stream is not None else sys.stdin
    out = output_stream if output_stream is not None else sys.stdout

    def painter(state, u, v):
        while True:
            out.write(f"edge ({u},{v}) color [R/B]> ")
            out.flush()
            line = inp.readline()
            if line == "":
                raise PainterAborted()
            answer = line.strip().upper()
            if answer in (RED, BLUE):
                return answer
            out.write("please answer R or B\n")

    return painter


# ---------------------------------------------------------------------------
# exhaustive verification


RED_SLACK = 1  # red edges <= 3 * vertices + RED_SLACK
EDGE_SLACK = 2  # total edges <= (t + 1) * vertices + EDGE_SLACK


@dataclass(frozen=True)
class VerificationReport:
    """Worst cases over every painter behavior, plus the bound checks."""

    t: int
    branches: int
    max_vertices: int
    max_red: int
    max_edges: int
    vertex_bound: int  # asserted: max_vertices <= this
    red_slack: int  # asserted: red_edges <= 3*vertices + red_slack on every branch
    edge_slack: int  # asserted: total_edges <= (t+1)*vertices + edge_slack


def resource_caps(t: int) -> tuple[int, int, int]:
    """The game's resource caps: (vertices, red edges, total edges).

    At most 2*C(t,2)+1 vertices, red <= 3*vertices+RED_SLACK and edges <=
    (t+1)*vertices+EDGE_SLACK, the last two taken at the vertex cap.
    These feed the union bound; `exhaustive_verify` certifies them.
    """
    if t < 3:
        raise ValueError(f"target t must be at least 3, got {t}")
    vertices = 2 * math.comb(t, 2) + 1
    return vertices, 3 * vertices + RED_SLACK, (t + 1) * vertices + EDGE_SLACK


def exhaustive_verify(
    t: int,
    caps: Optional[tuple[int, int]] = None,
    allow_t5: bool = False,
    memoize: bool = True,
) -> VerificationReport:
    """Search every painter behavior and certify the builder always wins.

    One depth-first search over the painter's binary choice at each
    exposed edge, with the builder playing its fixed walk strategy and
    the choice path kept.  Every leaf is a win.  On the branch where it
    breaks, the search raises VerificationError with that branch's
    transcript if a game is still running at caps = (vertices, edges),
    by default the vertex cap of `resource_caps` and its edge cap, or if
    a won game used more than 2*C(t,2)+1 vertices, more than
    3*vertices+RED_SLACK red edges or more than (t+1)*vertices+EDGE_SLACK
    edges.

    memoize caches each subtree's worst case under its frozen label set
    between insertions.  Play onward depends only on that set, and so do
    the counts so far: running labels are distinct, so the vertices are
    the set's size, the edges the sum of the label lengths and the red
    edges the number of R digits.  An entry therefore holds absolute
    worst cases and a subtree cached without a violation has none on a
    second visit, so both settings give the same report or the same
    error.  t=5 needs allow_t5.
    """
    if t not in (3, 4, 5):
        raise ValueError(f"exhaustive verification supports t in {{3,4,5}}, got {t}")
    if t == 5 and not allow_t5:
        raise ValueError("t=5 search is heavy; pass allow_t5=True to run it")

    vertex_bound, _, edge_cap = resource_caps(t)
    cap_vertices, cap_edges = (vertex_bound, edge_cap) if caps is None else caps
    cache: Optional[dict[frozenset, tuple]] = {} if memoize else None
    frozen: set[str] = set()
    path: list[str] = []

    def fail(message: str):
        try:  # replay the choice path as a real transcript
            _, transcript = run_game(t, scripted_painter(path), safety_cap=10**6)
        except GameAborted as ga:  # the path stops mid-game
            transcript = ga.transcript
        raise VerificationError(f"t={t}: {message}", transcript)

    def walk(label: str, ell: int, red: int, edges: int) -> tuple:
        """(leaves, vertices, red, edges) worst case below this position.

        The walker is mid-walk at `label`; ell counts it already.
        """
        if label not in frozen:
            frozen.add(label)
            if ell >= cap_vertices:
                fail(f"still running after {ell} vertices")
            if cache is None:
                worst = walk("", ell + 1, red, edges)
            else:
                key = frozenset(frozen)
                worst = cache.get(key)
                if worst is None:
                    worst = cache[key] = walk("", ell + 1, red, edges)
            frozen.remove(label)
            return worst
        if edges >= cap_edges:
            fail(f"still running after {edges} edges")
        leaves = max_vertices = max_red = max_edges = 0
        for c in (RED, BLUE):
            new = label + c
            red2 = red + (c == RED)
            path.append(c)
            won = _wins_red(new, frozen) if c == RED else _wins_blue(new, t)
            if won:
                if ell > vertex_bound:
                    fail(f"a branch used {ell} vertices, "
                         f"above the bound {vertex_bound}")
                if red2 - 3 * ell > RED_SLACK:
                    fail(f"a branch broke red <= 3*vertices+{RED_SLACK} "
                         f"by {red2 - 3 * ell - RED_SLACK}")
                if edges + 1 - (t + 1) * ell > EDGE_SLACK:
                    fail(f"a branch broke edges <= (t+1)*vertices+{EDGE_SLACK} "
                         f"by {edges + 1 - (t + 1) * ell - EDGE_SLACK}")
                sub = (1, ell, red2, edges + 1)
            else:
                sub = walk(new, ell, red2, edges + 1)
            path.pop()
            leaves += sub[0]
            if sub[1] > max_vertices:
                max_vertices = sub[1]
            if sub[2] > max_red:
                max_red = sub[2]
            if sub[3] > max_edges:
                max_edges = sub[3]
        return leaves, max_vertices, max_red, max_edges

    try:
        branches, max_vertices, max_red, max_edges = walk("", 1, 0, 0)
    finally:
        walk = None  # break the closure's self-reference, a reference cycle
    return VerificationReport(
        t=t,
        branches=branches,
        max_vertices=max_vertices,
        max_red=max_red,
        max_edges=max_edges,
        vertex_bound=vertex_bound,
        red_slack=RED_SLACK,
        edge_slack=EDGE_SLACK,
    )


# ---------------------------------------------------------------------------
# the upper-bound formula


def upper_bound_estimate(
    t: int, vertices: int, red_edges: int, total_edges: int, alpha: float
) -> float:
    """Base-2 log of the clique-side bound for given game resources.

    log2(vertices) + red*log2(1/alpha) + (total-red)*log2(1/(1-alpha)),
    evaluated in log space.  alpha must lie in (0, 1/2].
    """
    if t < 3:
        raise ValueError(f"target t must be at least 3, got {t}")
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2], got {alpha}")
    if vertices < 1:
        raise ValueError(f"need at least one vertex, got {vertices}")
    if not 0 <= red_edges <= total_edges:
        raise ValueError(
            f"need 0 <= red <= total, got red={red_edges} total={total_edges}"
        )
    blue = total_edges - red_edges
    return (
        math.log2(vertices)
        - red_edges * math.log2(alpha)
        - blue * math.log2(1.0 - alpha)
    )
