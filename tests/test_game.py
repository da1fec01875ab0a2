import gc
import hashlib
import io
import json
import math

import pytest

from oracles import detect_blue_clique_brute, detect_red_k4_minus_brute, edge_color
from ramseykit import game
from ramseykit.game import (
    GameAborted,
    GameState,
    SafetyCapReached,
    VerificationError,
    all_blue,
    all_red,
    exhaustive_verify,
    game_stats,
    greedy_saver,
    insert_vertex,
    interactive,
    random_painter,
    run_game,
    scripted_painter,
    transcript_to_jsonl,
    upper_bound_estimate,
)
from ramseykit.rng import derive_seed


def test_edge_color_prefix_rule():
    assert edge_color("", "R") == "R"
    assert edge_color("RB", "RBR") == "R"
    assert edge_color("RBR", "RB") == "R"  # symmetric
    assert edge_color("R", "R") is None
    assert edge_color("R", "BB") is None


# ---------------------------------------------------------------------------
# structural invariants under random play


def _play_checking_invariants(t, seed):
    state = GameState(t=t)
    painter = random_painter(seed)
    while state.running:
        insert_vertex(state, painter)
        if state.running:
            # frozen labels stay distinct and prefix-closed
            assert len(set(state.labels)) == len(state.labels)
            for lab in state.labels:
                for cut in range(len(lab)):
                    assert lab[:cut] in state.labels, (lab, cut)
        for lab in state.labels:
            assert lab.count("B") <= t - 2
    return state


def test_labels_distinct_and_prefix_closed_while_running():
    for t in (3, 5, 8):
        for i in range(40):
            state = _play_checking_invariants(t, derive_seed(1, t, i))
            assert state.status in ("RedK4Minus", "BlueClique")
            assert state.witness is not None


def test_edges_are_exactly_the_prefix_pairs():
    for i in range(30):
        state = GameState(t=7)
        painter = random_painter(derive_seed(2, i))
        exposed = []
        while state.running:
            exposed += [(ev["u"], ev["v"], ev["color"])
                        for ev in insert_vertex(state, painter) if ev["event"] == "edge"]
        earliest = {}
        for v, lab in enumerate(state.labels):
            earliest.setdefault(lab, v)
        expected = set()
        for v, lab in enumerate(state.labels):
            for cut in range(len(lab)):
                expected.add((earliest[lab[:cut]], v, lab[cut]))
        assert len(exposed) == len(expected) and set(exposed) == expected, i
        stats = game_stats(state)
        red = sum(1 for _, _, c in exposed if c == "R")
        assert (stats.red_edges, stats.total_edges) == (red, len(exposed)), i


def test_aggregate_resource_bounds_random():
    for t in (4, 6, 9):
        for i in range(60):
            stats, _ = run_game(t, random_painter(derive_seed(3, t, i)))
            ell = stats.vertices_used
            assert ell <= 2 * math.comb(t, 2) + 1
            assert stats.red_edges <= 3 * ell + 1
            assert stats.total_edges <= (t + 1) * ell + 2


# ---------------------------------------------------------------------------
# the win rule against brute force


def _final_state(t, painter):
    state = GameState(t=t)
    while state.running:
        insert_vertex(state, painter)
    return state


def test_win_rule_matches_brute_force():
    for i in range(60):
        state = GameState(t=6)
        painter = random_painter(derive_seed(4, i), p_red=(0.2, 0.5, 0.8)[i % 3])
        while state.running:
            insert_vertex(state, painter)
            if state.running:  # the incremental rule missed no win
                assert detect_red_k4_minus_brute(state) is None, state.labels
                assert detect_blue_clique_brute(state, 5) is None, state.labels
        if state.status == "RedK4Minus":
            assert detect_red_k4_minus_brute(state) is not None, state.labels
        else:
            assert detect_blue_clique_brute(state, 5) is not None, state.labels


def test_red_witness_edges_are_red():
    found = {"RedK4Minus": 0, "BlueClique": 0}
    for i in range(60):
        state = _final_state(5, random_painter(derive_seed(5, i)))
        found[state.status] += 1
        labels, w = state.labels, state.witness
        assert list(w) == sorted(set(w)), w
        if state.status == "RedK4Minus":
            v1, v2, v3, v4 = w
            need = [(v1, v2), (v1, v3), (v1, v4), (v2, v3), (v2, v4)]
            assert all(edge_color(labels[x], labels[y]) == "R" for x, y in need), w
        else:
            assert len(w) == state.t - 1
            assert all(
                edge_color(labels[x], labels[y]) == "B"
                for j, x in enumerate(w)
                for y in w[j + 1:]
            ), w
    assert found["RedK4Minus"] > 5  # red wins do occur under fair coins
    assert found["BlueClique"] > 5


def test_witnesses_match_frozen_digest():
    # frozen SHA-256 of the witness lines: a change in which vertices a win
    # reports fails here
    lines = []
    for t in range(3, 13):
        painters = [random_painter(derive_seed(6, t, i)) for i in range(20)]
        painters += [all_red(), all_blue(), greedy_saver()]
        for painter in painters:
            state = _final_state(t, painter)
            lines.append(f"{t} {state.status} {' '.join(map(str, state.witness))}")
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == "3a2846a01f7171e89482fd0289f8e3da1836ca14352a323ce654ba1aa5b9348c"


def test_detect_blue_rejects_bad_q():
    with pytest.raises(ValueError):
        detect_blue_clique_brute(GameState(t=4), 0)


# ---------------------------------------------------------------------------
# canonical painters


def test_all_red_spine():
    for t in (4, 7, 12):
        stats, _ = run_game(t, all_red())
        assert (stats.vertices_used, stats.red_edges, stats.total_edges) == (4, 5, 5)
        assert stats.outcome == "RedK4Minus"


def test_all_red_t3_shorter():
    stats, _ = run_game(3, all_red())
    assert stats.outcome == "RedK4Minus"
    assert stats.vertices_used <= 4


def test_all_blue_chain():
    for t in (3, 5, 9):
        stats, _ = run_game(t, all_blue())
        expect = (t - 1, 0, math.comb(t - 1, 2))
        assert (stats.vertices_used, stats.red_edges, stats.total_edges) == expect
        assert stats.outcome == "BlueClique"


def test_greedy_saver_stays_in_bounds():
    for t in (3, 6, 10):
        stats, _ = run_game(t, greedy_saver())
        ell = stats.vertices_used
        assert ell <= 2 * math.comb(t, 2) + 1
        assert stats.red_edges <= 3 * ell + 1
        assert stats.total_edges <= (t + 1) * ell + 2


def test_random_painter_extremes():
    red_stats, _ = run_game(6, random_painter(0, p_red=1.0))
    assert (red_stats.vertices_used, red_stats.red_edges) == (4, 5)
    blue_stats, _ = run_game(6, random_painter(0, p_red=0.0))
    assert blue_stats.outcome == "BlueClique"
    with pytest.raises(ValueError):
        random_painter(0, p_red=1.5)


def test_scripted_painter_exhaustion_aborts():
    with pytest.raises(GameAborted) as info:
        run_game(8, scripted_painter(["R", "B", "R"]))
    assert info.value.stats.total_edges == 3
    assert info.value.transcript  # partial transcript retained


def test_safety_cap_detected():
    with pytest.raises(SafetyCapReached):
        run_game(12, all_blue(), safety_cap=3)


@pytest.mark.parametrize("cap", [0, -1])
def test_safety_cap_below_one_is_bad_input(cap):
    with pytest.raises(ValueError, match="safety cap"):
        run_game(4, all_red(), safety_cap=cap)


@pytest.mark.parametrize("t", [2, 0, -1])
def test_resource_caps_below_three_is_bad_input(t):
    with pytest.raises(ValueError, match="at least 3"):
        game.resource_caps(t)


def test_interactive_painter_roundtrip():
    answers = io.StringIO("x\nB\nR\nB\nB\n")
    prompts = io.StringIO()
    stats, _ = run_game(3, interactive(answers, prompts), safety_cap=50)
    text = prompts.getvalue()
    assert "color [R/B]" in text
    assert "please answer R or B" in text  # the bad "x" line
    assert stats.outcome in ("RedK4Minus", "BlueClique")


def test_interactive_painter_eof_aborts():
    with pytest.raises(GameAborted):
        run_game(5, interactive(io.StringIO(""), io.StringIO()))


# ---------------------------------------------------------------------------
# transcripts


def test_transcript_schema():
    stats, transcript = run_game(4, random_painter(123))
    assert [rec["step"] for rec in transcript] == list(range(1, len(transcript) + 1))
    kinds = [rec["event"] for rec in transcript]
    assert kinds[-1] == "win"
    assert kinds.count("win") == 1
    win = transcript[-1]
    assert win["outcome"] == stats.outcome
    assert "witness" not in win
    edges = [r for r in transcript if r["event"] == "edge"]
    assert len(edges) == stats.total_edges
    verts = [r for r in transcript if r["event"] == "vertex"]
    assert len(verts) == stats.vertices_used
    jsonl = transcript_to_jsonl(transcript)
    parsed = [json.loads(line) for line in jsonl.splitlines()]
    assert parsed == transcript


def test_transcript_replays_identically():
    _, transcript = run_game(5, random_painter(17))
    colors = [r["color"] for r in transcript if r["event"] == "edge"]
    stats2, transcript2 = run_game(5, scripted_painter(colors))
    assert transcript2 == transcript
    assert stats2.total_edges == len(colors)


# ---------------------------------------------------------------------------
# exhaustive verification


def test_exhaustive_t3_exact():
    report = exhaustive_verify(3)
    assert report.branches == 6
    assert (report.max_vertices, report.max_red, report.max_edges) == (4, 5, 5)
    assert report.vertex_bound == 7


def test_exhaustive_t4_exact_and_memo_agrees():
    raw = exhaustive_verify(4, memoize=False)
    memo = exhaustive_verify(4)
    assert raw.branches == memo.branches == 1542
    assert (raw.max_vertices, raw.max_red, raw.max_edges) == (9, 11, 17)
    assert (memo.max_vertices, memo.max_red, memo.max_edges) == (9, 11, 17)


@pytest.mark.parametrize("memoize", [True, False])
def test_exhaustive_leaves_no_reference_cycle(memoize):
    # the search frees its state on return
    gc.disable()
    try:
        gc.collect()
        exhaustive_verify(4, memoize=memoize)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_exhaustive_t3_memo_agrees():
    raw = exhaustive_verify(3, memoize=False)
    memo = exhaustive_verify(3)
    assert (raw.branches, raw.max_vertices, raw.max_red, raw.max_edges) == (
        memo.branches,
        memo.max_vertices,
        memo.max_red,
        memo.max_edges,
    )


def test_exhaustive_tiny_caps_fail_with_transcript():
    with pytest.raises(VerificationError) as info:
        exhaustive_verify(4, caps=(3, 100))
    assert info.value.transcript


def _verify_outcome(t, memoize, caps):
    """The report's counts, or the error's message and transcript."""
    try:
        r = exhaustive_verify(t, caps=caps, memoize=memoize)
    except VerificationError as err:
        assert err.transcript, str(err)
        return [str(err), err.transcript]
    return ["ok", [r.branches, r.max_vertices, r.max_red, r.max_edges]]


# SHA-256 of the uncached outcomes over the grid below, as the plain search
# computed them before the memo became a cache on it
CAPS_GRID_DIGEST = "ddee818b10d67e27f5d716a6f2daa3b44968486f568fbe2c3c13076b8fe6590a"


def test_exhaustive_caps_grid_same_with_and_without_cache():
    # (100, 5) once passed cached while the plain search stopped on the edge cap
    grid = [
        (t, (v, e))
        for t in (3, 4)
        for v in (0, 1, 2, 3, 4, 5, 8, 9, 10, 100)
        for e in (0, 1, 2, 5, 16, 17, 100)
    ]
    out = []
    for t, caps in grid:
        raw = _verify_outcome(t, False, caps)
        assert _verify_outcome(t, True, caps) == raw, (t, caps)
        out.append([t, *caps, *raw])
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == CAPS_GRID_DIGEST


# at t=4 the worst cases are 9 vertices, red-3*vertices = -7 and
# edges-5*vertices = -12; each patch makes one bound one short
@pytest.mark.parametrize("patch, message", [
    (("resource_caps", lambda t: (8, 25, 42)), "used 9 vertices, above the bound 8"),
    (("RED_SLACK", -8), "broke red <= 3*vertices+-8 by 1"),
    (("EDGE_SLACK", -13), "broke edges <= (t+1)*vertices+-13 by 1"),
])
def test_exhaustive_bound_breaks_on_the_branch(monkeypatch, patch, message):
    monkeypatch.setattr(game, *patch)
    raw = _verify_outcome(4, False, (100, 1000))
    assert _verify_outcome(4, True, (100, 1000)) == raw
    text, transcript = raw
    assert message in text
    # the transcript is a finished game that replays from its colours
    assert transcript[-1]["event"] == "win"
    colors = [rec["color"] for rec in transcript if rec["event"] == "edge"]
    assert run_game(4, scripted_painter(colors))[1] == transcript


def test_exhaustive_t5_is_gated():
    with pytest.raises(ValueError):
        exhaustive_verify(5)


def test_exhaustive_rejects_silly_t():
    with pytest.raises(ValueError):
        exhaustive_verify(2)
    with pytest.raises(ValueError):
        exhaustive_verify(6)


# ---------------------------------------------------------------------------
# the certificate evaluator


def test_upper_bound_hand_value():
    # log2(4) - 5 log2(1/2) - 0 log2(1/2) = 2 + 5
    assert upper_bound_estimate(3, 4, 5, 5, 0.5) == pytest.approx(7.0)


def test_upper_bound_red_blue_split():
    # one red and one blue edge at alpha = 1/4
    got = upper_bound_estimate(3, 2, 1, 2, 0.25)
    expect = 1.0 - math.log2(0.25) - math.log2(0.75)
    assert got == pytest.approx(expect)


def test_upper_bound_validation():
    with pytest.raises(ValueError):
        upper_bound_estimate(2, 4, 5, 5, 0.5)
    with pytest.raises(ValueError):
        upper_bound_estimate(3, 4, 5, 5, 0.0)
    with pytest.raises(ValueError):
        upper_bound_estimate(3, 4, 5, 5, 0.6)
    with pytest.raises(ValueError):
        upper_bound_estimate(3, 4, 6, 5, 0.5)  # more red than total


def test_game_stats_fresh_state():
    stats = game_stats(GameState(t=5))
    assert stats == type(stats)(0, 0, 0, "Running")
