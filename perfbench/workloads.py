"""The three workloads: their inputs, their queries and the answer checks.

A workload is ``prepare(seed) -> plan`` plus ``run(rec, plan, scratch)``.
``prepare`` is input generation and runs before the first query; it
calls no search.  ``run`` is one pass: every query goes through
``rec.query`` and is checked.

Two kinds of input share each pass.  *Reference* instances use the
frozen seed scheme of the acceptance gate (``derive_seed(0, ...)``) and
are the same for every workload seed: they are the heavy absence proofs
and hom searches whose cost varies 10-30x from one random instance to
the next (coefficient of variation near 1), so drawing them from the
workload seed would need hundreds per pass before two seeds agreed.
*Seeded* instances come from the workload seed and are many and light.
README.md in this directory gives the measurements behind the split.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import random

import checks
from ramseykit import cli, construction, game, homomorphism, hypergraph, poset
from ramseykit.rng import derive_seed

REFERENCE_SEED = 0


def _lengths(k: int, n: int) -> list[int]:
    """Cycle lengths a k-lift must not contain: s <= 12 with s % k != 0."""
    lo = 4 if k == 3 else k + 1
    return [s for s in range(lo, min(12, n) + 1) if s % k]


# ---------------------------------------------------------------------------
# shared query helpers


def _lift(rec, k: int, n: int, source_seed: int):
    """sample_graph then build_h3 / build_hk, both checked; returns the lift."""
    G = rec.query(
        "construction.sample_graph", construction.sample_graph, k - 1, n, source_seed,
        check=lambda G: G.k == k - 1 and G.n == n,
        answer=lambda G: len(G.edges),
    )
    if k == 3:
        name, fn, args = "construction.build_h3", construction.build_h3, (G,)
    else:
        name, fn, args = "construction.build_hk", construction.build_hk, (G, k)
    H = rec.query(
        name, fn, *args,
        check=lambda H: set(H.edges) == checks.lift_edges(G.edges, n, k),
        answer=lambda H: len(H.edges),
    )
    if H is not None:
        rec.count("construction.lift_edges", len(H.edges))
    return H


def _certify_absent(rec, H, k: int, n: int) -> None:
    for s in _lengths(k, n):
        rec.query(
            "hypergraph.contains_tight_cycle", hypergraph.contains_tight_cycle, H, s,
            check=lambda found: found is False,
            note=lambda found: "present" if found else "absent",
            answer=bool,
        )


def _spectrum_report(rec, H, k: int, s_max: int):
    return rec.query(
        "construction.mod_spectrum_report", construction.mod_spectrum_report, H, s_max,
        check=lambda r: r.verdict == "PASS"
        and not any(hit for s, hit in r.found.items() if s % k),
        answer=lambda r: sorted(s for s, hit in r.found.items() if hit),
    )


def _cli(rec, argv: list[str], expected, also=None) -> str | None:
    """One cli.main call; stdout must equal ``expected()`` byte for byte.

    ``also()``, when given, checks the files the command wrote.
    """

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    result = rec.query(
        "cli.main", call,
        check=lambda r: r[0] == 0 and r[1] == expected() and (also is None or also()),
        answer=lambda r: hashlib.sha256(r[1].encode()).hexdigest()[:16],
    )
    if result is None:
        return None
    rec.count("cli.bytes_out", len(result[1].encode()))
    return result[1]


def _read_text_graph(path: str):
    """(k, n, edges) from the text format, parsed here rather than by load()."""
    rows = [ln.split() for ln in _read_lines(path) if ln.strip() and not ln.startswith("#")]
    k, n = map(int, rows[0])
    return k, n, {tuple(map(int, r)) for r in rows[1:]}


# ---------------------------------------------------------------------------
# lift-certify: proving tight cycles absent


def prepare_lift_certify(seed: int) -> dict:
    # (k, n, source seed, also run mod_spectrum_report); the README's
    # n=25 lift, scanned in run_lift_certify, stands for criterion 1's
    reference = [(22, i) for i in range(3)] + [(20, i) for i in range(6)]
    reference += [(16, i) for i in range(10)] + [(14, i) for i in range(20)]
    lifts = [(3, n, derive_seed(REFERENCE_SEED, n, i), i % 4 == 0 and n < 22)
             for n, i in reference]
    lifts += [(4, 18, derive_seed(REFERENCE_SEED, 4, 18, i), i % 4 == 0) for i in range(15)]
    # The k=4 scans sit at this workload's p90; drawn from the seed they
    # spread it by 16 % over ten seeds, so here the seed only sets the order.
    random.Random(seed).shuffle(lifts)
    return {"lifts": lifts}


def run_lift_certify(rec, plan: dict, scratch: str) -> None:
    for k, n, source_seed, with_report in plan["lifts"]:
        H = _lift(rec, k, n, source_seed)
        _certify_absent(rec, H, k, n)
        if with_report:
            _spectrum_report(rec, H, k, 12)

    # README: construct the n=25 lift, then check-cycles on the written file
    path = os.path.join(scratch, "h.txt")
    H = _lift(rec, 3, 25, 5)
    _certify_absent(rec, H, 3, 25)
    _cli(rec, ["construct", "--n", "25", "--k", "3", "--seed", "5", "--out", path],
         lambda: f"wrote {path}: k=3 n=25 edges={len(H.edges)}\n",
         also=lambda: _read_text_graph(path) == (3, 25, set(H.edges)))
    report = _spectrum_report(rec, H, 3, 12)
    _cli(rec, ["check-cycles", "--in", path, "--max-s", "12"], lambda: report.to_csv())


# ---------------------------------------------------------------------------
# random-host: finding cycles, independence branch and bound, packings


def _random_host(rng: random.Random, n: int, m: int) -> list[tuple[int, int, int]]:
    return rng.sample(list(itertools.combinations(range(n), 3)), m)


def prepare_random_host(seed: int) -> dict:
    rng = random.Random(seed)
    ref = random.Random(REFERENCE_SEED)
    hosts = [_random_host(ref, 25, m) for m in [300] * 2 + [200] * 15]
    rng.shuffle(hosts)
    alpha = [(3, 64, derive_seed(REFERENCE_SEED, 64, 0)),
             (4, 20, derive_seed(REFERENCE_SEED, 20, 0))]
    alpha += [(3, 32, derive_seed(seed, 32, i)) for i in range(6)]
    alpha += [(3, 48, derive_seed(seed, 48, i)) for i in range(2)]
    alpha += [(4, 16, derive_seed(seed, 16, i)) for i in range(2)]
    rng.shuffle(alpha)
    return {
        "hosts": hosts,
        "alpha": alpha,
        "alpha_grid": ([16, 32, 48], 1, seed % (1 << 32)),
        "steiner": [(51, derive_seed(seed, 51)), (99, derive_seed(seed, 99))],
        "threshold": [10**3, 10**4, 10**5, 10**6] + [rng.randrange(10, 10**9) for _ in range(8)],
    }


def _scan_host(rec, edges) -> None:
    H = hypergraph.Hypergraph(3, 25, edges)
    edge_set = {tuple(sorted(e)) for e in edges}
    spectrum = rec.query(
        "hypergraph.cycle_spectrum", hypergraph.cycle_spectrum, H, 12,
        check=lambda sp: sp <= set(range(4, 13)), answer=sorted,
    )
    rec.count("hypergraph.lengths_scanned", 9)
    for s in sorted(spectrum or ()):
        rec.count("hypergraph.lengths_found", 1)
        rec.query(
            "hypergraph.find_tight_cycle", hypergraph.find_tight_cycle, H, s,
            check=lambda c: checks.is_tight_cycle(edge_set, 3, c, s),
            answer=list,
        )


def _alpha(rec, k: int, n: int, source_seed: int) -> None:
    H = _lift(rec, k, n, source_seed)
    rec.query(
        "hypergraph.independence_number_exact", hypergraph.independence_number_exact, H,
        check=lambda a: checks.independent_greedy_size(H.edges, n) <= a <= n,
        note=lambda a: f"k{k}", answer=int,
    )


def _packing(rec, t: int, seed: int):
    packing = rec.query(
        "construction.greedy_steiner_packing", construction.greedy_steiner_packing, t, seed,
        check=lambda p: checks.packing_ok(p.triples, t)
        and construction.TriplePacking(t, p.triples) is not None,
        answer=len,
    )
    if packing is not None:
        rec.count("construction.steiner_triples", len(packing))
        rec.count("construction.steiner_pairs", t * (t - 1) / 6)
    return packing


def _threshold(rec, n: int):
    return rec.query(
        "construction.union_bound_threshold", construction.union_bound_threshold, n,
        check=lambda t: checks.threshold_ok(n, t), answer=int,
    )


def run_random_host(rec, plan: dict, scratch: str) -> None:
    for edges in plan["hosts"]:
        _scan_host(rec, edges)
    for k, n, source_seed in plan["alpha"]:
        _alpha(rec, k, n, source_seed)
    for t, seed in plan["steiner"]:
        _packing(rec, t, seed)
    limits = {n: _threshold(rec, n) for n in plan["threshold"]}

    # README: alpha (grid scaled down), steiner, threshold
    n_values, per_n, base = plan["alpha_grid"]
    rows = alpha_grid(rec, n_values, per_n, base, 1)
    _cli(rec, ["alpha", "--n-values", ",".join(map(str, n_values)),
               "--seeds-per-n", str(per_n), "--seed", str(base)],
         lambda: construction.alpha_rows_to_csv(rows))
    best_path = os.path.join(scratch, "best.txt")
    packings = [_packing(rec, 21, seed) for seed in range(10)]
    # the CLI keeps the first of the largest packings
    _cli(rec, ["steiner", "--t", "21", "--seeds", "10", "--packing-out", best_path],
         lambda: "t,seed,size\n" + "".join(f"21,{s},{len(p)}\n" for s, p in enumerate(packings)),
         also=lambda: _read_lines(best_path) == ["# best triple packing found"]
         + [f"{a} {b} {c}" for a, b, c in max(packings, key=len).triples])
    _cli(rec, ["threshold", "--n", "1000", "1000000"],
         lambda: "n,threshold,threshold_over_log2n\n" + "".join(
             f"{n},{limits[n]},{limits[n] / math.log2(n):.6f}\n" for n in (1000, 1000000)))


def alpha_grid(rec, n_values, per_n: int, base: int, threads: int):
    """alpha_experiment with checked rows; ``threads`` becomes max_threads."""
    cells = [(n, derive_seed(base, n, i)) for n in n_values for i in range(per_n)]
    return rec.query(
        "construction.alpha_experiment", construction.alpha_experiment,
        n_values, per_n, base, max_threads=threads,
        check=lambda rows: [(r.n, r.seed) for r in rows] == cells
        and all(r.error is None and 1 <= r.alpha <= r.n for r in rows),
        note=lambda rows: f"threads{threads}",
        answer=lambda rows: [r.alpha for r in rows],
    )


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


# ---------------------------------------------------------------------------
# exact-certify: game trees, posets, homomorphisms


# (t, memoize) -> (branches, (max_vertices, max_red, max_edges)), frozen
VERIFY_FROZEN = {
    (3, False): (6, (4, 5, 5)),
    (4, False): (1542, (9, 11, 17)),
    (3, True): (6, (4, 5, 5)),
    (4, True): (1542, (9, 11, 17)),
    (5, True): (120789411, (16, 20, 41)),
}


def prepare_exact_certify(seed: int) -> dict:
    games = [(t, derive_seed(seed, t, i)) for t in range(5, 13) for i in range(60)]
    random.Random(seed).shuffle(games)
    hom_lifts = [(s, derive_seed(REFERENCE_SEED, 14, 0)) for s in (4, 5, 7, 8)]
    hom_lifts += [(s, derive_seed(seed, 14, s, i)) for s in (4, 5) for i in range(6)]
    return {"games": games, "hom_lifts": hom_lifts}


def _verify(rec, t: int, memoize: bool):
    branches, worst = VERIFY_FROZEN[t, memoize]
    kwargs = {"allow_t5": True} if t == 5 else {"memoize": memoize}
    report = rec.query(
        "game.exhaustive_verify", game.exhaustive_verify, t, **kwargs,
        check=lambda r: (r.branches, (r.max_vertices, r.max_red, r.max_edges))
        == (branches, worst),
        note=lambda r: "memo" if memoize else "raw",
        answer=lambda r: [r.branches, r.max_vertices, r.max_red, r.max_edges],
    )
    if report is not None:
        rec.count("game.branches", report.branches)
    return report


def _play(rec, t: int, painter, expected=None):
    result = rec.query(
        "game.run_game", game.run_game, t, painter,
        check=lambda r: checks.game_within_caps(r[0], t) and (
            expected is None
            or (r[0].vertices_used, r[0].red_edges, r[0].total_edges) == expected),
        answer=lambda r: [r[0].vertices_used, r[0].red_edges, r[0].total_edges],
    )
    if result is not None:
        rec.count("game.games", 1)
        rec.count("game.edges_exposed", result[0].total_edges)
    return result


def _poset_width(rec, t: int, k: int):
    """Level 3 of the tower and its width; level 3 has C(t-k+3, 2) elements."""
    P = rec.query(
        "poset.build_J", poset.build_J, 3, t, k,
        check=lambda P: P.p == math.comb(t - k + 3, 2),
        answer=lambda P: P.p,
    )
    if P is not None:
        rec.count("poset.elements", P.p)
        rec.count("poset.comparable_pairs", checks.strict_pairs(P.down))
    # criterion 9's width floor is stated for k = 3
    width = rec.query("poset.max_antichain", poset.max_antichain, P,
                      check=lambda w: 1 <= w <= P.p and (k != 3 or w >= (t - 3) // 2),
                      answer=int)
    return P, width


def _homomorphism(rec, F, G, expect_none: bool):
    return rec.query(
        "homomorphism.exists_homomorphism", homomorphism.exists_homomorphism, F, G,
        note=lambda phi: "none" if phi is None else "found",
        check=lambda phi: phi is None if expect_none else phi is not None and rec.span(
            "homomorphism.validate_homomorphism",
            homomorphism.validate_homomorphism, F, G, phi),
        answer=lambda phi: None if phi is None else list(phi),
    )


def run_exact_certify(rec, plan: dict, scratch: str) -> None:
    reports = {key: _verify(rec, *key) for key in VERIFY_FROZEN}

    for t, seed in plan["games"]:
        _play(rec, t, game.random_painter(seed))
    for t in range(5, 13):
        _play(rec, t, game.all_red(), expected=(4, 5, 5))
        _play(rec, t, game.all_blue(), expected=(t - 1, 0, math.comb(t - 1, 2)))
        _play(rec, t, game.greedy_saver())

    antichains = {}
    for t in range(8, 27):
        P, width = _poset_width(rec, t, 3)
        witness = rec.query(
            "poset.antichain_witness", poset.antichain_witness, P,
            check=lambda w: checks.antichain_ok(P.down, w, width), answer=len)
        antichains[t] = (P, width, witness)
    for t in range(5, 17):
        for k in range(max(4, t - 4), t):
            J3, width = _poset_width(rec, t, k)
            rec.query("poset.ideals", poset.ideals, J3,
                      check=lambda found: len(found) >= 2 ** width, answer=len)

    K4 = hypergraph.complete(3, 4)
    into_k4 = {s: _homomorphism(rec, hypergraph.tight_cycle(3, s), K4, expect_none=s == 5)
               for s in range(4, 13)}
    for s, source_seed in plan["hom_lifts"]:
        lift = _lift(rec, 3, 14, source_seed)
        # closed tight walks in a 3-lift have length divisible by 3
        _homomorphism(rec, hypergraph.tight_cycle(3, s), lift, expect_none=True)

    # README: game-verify, game, hom, poset, bound
    r4 = reports[4, False]
    _cli(rec, ["game-verify", "--t", "4"], lambda: (
        "t,branches,max_vertices,max_red,max_edges\n"
        f"4,{r4.branches},{r4.max_vertices},{r4.max_red},{r4.max_edges}\n"))
    transcript_path = os.path.join(scratch, "game.jsonl")
    played = _play(rec, 6, game.random_painter(3))
    _cli(rec, ["game", "--t", "6", "--painter", "random", "--seed", "3",
               "--transcript", transcript_path],
         lambda: "t=6 outcome={0.outcome} vertices_used={0.vertices_used} "
                 "red_edges={0.red_edges} total_edges={0.total_edges}\n".format(played[0]),
         also=lambda: _read_lines(transcript_path)
         == game.transcript_to_jsonl(played[1]).splitlines())
    _cli(rec, ["hom", "--from", "cycle:6", "--to", "clique:4"],
         lambda: " ".join(map(str, into_k4[6])) + "\n")
    P, width, witness = antichains[10]
    _cli(rec, ["poset", "--k", "3", "--t", "10", "--level", "3", "--antichain"],
         lambda: f"k,t,level,size,width\n3,10,3,{P.p},{width}\n"
                 "# antichain: " + " ".join(map(str, witness)) + "\n")
    cap = 2 * math.comb(100, 2) + 1
    value = rec.query("game.upper_bound_estimate", game.upper_bound_estimate,
                      100, cap, 3 * cap + 1, 101 * cap + 2, 1 / 100,
                      check=lambda v: 0 < v <= 3.2 * 100 * 100 * math.log2(100))
    _cli(rec, ["bound", "--t", "100"], lambda: (
        "t,alpha,vertices,red_edges,total_edges,log2_bound\n"
        f"100,{1 / 100:.6g},{cap},{3 * cap + 1},{101 * cap + 2},{value:.6f}\n"))


WORKLOADS = {
    "lift-certify": (prepare_lift_certify, run_lift_certify),
    "random-host": (prepare_random_host, run_random_host),
    "exact-certify": (prepare_exact_certify, run_exact_certify),
}
