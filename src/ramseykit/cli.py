"""Command line front end.

Every subcommand is a thin wrapper over the library.  Tabular output is
CSV with a header row, written UTF-8 with \\n line endings.  Exit codes:
0 for success or a verified property, 1 for a property violation (a
counterexample artifact is written to a file), 2 for usage errors.
An option's domain is its argparse type; the subcommands check only one
option against another or against a file.  Give a value argparse would
read as an option, such as -inf, as --opt=VALUE.

Environment: RAMSEY_SEED supplies the default seed when --seed is
omitted (0 if unset).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import construction, game, homomorphism, hypergraph, poset
from .rng import MASK64


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_construct(args) -> int:
    if args.n < args.k - 1:
        raise ValueError(
            f"--n {args.n} must be at least {args.k - 1}, "
            f"one less than --k {args.k}: a source edge has k-1 vertices"
        )
    G = construction.sample_graph(args.k - 1, args.n, args.seed)
    H = construction.build_hk(G, args.k)
    comment = f"lifted from a random ({args.k - 1})-uniform source, seed={args.seed}"
    hypergraph.save(H, args.out, comment=comment)
    sys.stdout.write(f"wrote {args.out}: k={H.k} n={H.n} edges={len(H.edges)}\n")
    return 0


def _cmd_check_cycles(args) -> int:
    H = hypergraph.load(args.path)
    lo = hypergraph.scanned_lengths(H, args.max_s).start
    if args.max_s < lo:
        raise ValueError(f"--max-s {args.max_s} is below the first scanned length {lo}")
    if H.n < lo:
        raise ValueError(
            f"the file has n={H.n} vertices, fewer than the first scanned length {lo}"
        )
    report = construction.mod_spectrum_report(H, args.max_s)
    sys.stdout.write(report.to_csv())
    if report.verdict == "PASS":
        sys.stderr.write("PASS: no tight cycle off the residue-0 lengths\n")
        return 0
    lines = ["# tight cycles violating the divisibility rule"]
    for s in report.offending:
        lines.append(f"s={s} cycle: " + " ".join(map(str, report.witnesses[s])))
    cx = args.counterexample_out or args.path + ".counterexample.txt"
    _write_text(cx, "\n".join(lines) + "\n")
    sys.stderr.write(
        f"FAIL: cycle lengths {report.offending} hit; witness in {cx}\n"
    )
    return 1


def _cmd_alpha(args) -> int:
    for n in args.n_values:
        if not 2 <= n <= args.cap:
            raise ValueError(f"--n-values {n} lies outside [2, --cap {args.cap}]")
    rows = construction.alpha_experiment(
        args.n_values, args.seeds_per_n, args.seed, cap=args.cap
    )
    _emit(construction.alpha_rows_to_csv(rows), args.out)
    return 0


# every seed's packing holds two C-int arrays over the C(t, 3) triples:
# 4.46 million triples, about 36 MB, at t = 300
_STEINER_MAX_T = 300


def _cmd_steiner(args) -> int:
    if args.seed + args.seeds - 1 > MASK64:
        raise ValueError(
            f"--seed {args.seed} plus --seeds {args.seeds} runs past "
            f"the largest seed {MASK64}"
        )
    lines = ["t,seed,size"]
    best = None
    for i in range(args.seeds):
        seed = args.seed + i
        packing = construction.greedy_steiner_packing(args.t, seed)
        lines.append(f"{args.t},{seed},{len(packing)}")
        if best is None or len(packing) > len(best):
            best = packing
    _emit("\n".join(lines) + "\n", args.out)
    if args.packing_out:
        body = ["# best triple packing found"] + [
            f"{a} {b} {c}" for a, b, c in best.triples
        ]
        _write_text(args.packing_out, "\n".join(body) + "\n")
    return 0


def _cmd_threshold(args) -> int:
    lines = ["n,threshold,threshold_over_log2n"]
    for n in args.n:
        t = construction.union_bound_threshold(n)
        lines.append(f"{n},{t},{t / math.log2(n):.6f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _make_painter(args):
    if args.painter == "all-red":
        return game.all_red()
    if args.painter == "all-blue":
        return game.all_blue()
    if args.painter == "greedy":
        return game.greedy_saver()
    if args.painter == "random":
        return game.random_painter(args.seed, p_red=args.p_red)
    return game.interactive(sys.stdin, sys.stdout)


def _cmd_game(args) -> int:
    painter = _make_painter(args)
    try:
        stats, transcript = game.run_game(args.t, painter, safety_cap=args.safety_cap)
    except game.GameAborted as abort:
        if args.transcript:
            _write_text(args.transcript, game.transcript_to_jsonl(abort.transcript))
        sys.stdout.write(f"t={args.t} outcome=Aborted after {len(abort.transcript)} events\n")
        return 0
    except game.SafetyCapReached as cap:
        cx = args.transcript or "game-counterexample.jsonl"
        _write_text(cx, game.transcript_to_jsonl(cap.transcript))
        sys.stderr.write(
            f"FAIL: no win within {args.safety_cap} vertices; transcript in {cx}\n"
        )
        return 1
    if args.transcript:
        _write_text(args.transcript, game.transcript_to_jsonl(transcript))
    sys.stdout.write(
        f"t={args.t} outcome={stats.outcome} vertices_used={stats.vertices_used} "
        f"red_edges={stats.red_edges} total_edges={stats.total_edges}\n"
    )
    return 0


def _cmd_game_verify(args) -> int:
    try:
        report = game.exhaustive_verify(args.t, allow_t5=True)
    except game.VerificationError as err:
        cx = args.counterexample_out or "game-verify-counterexample.jsonl"
        _write_text(cx, game.transcript_to_jsonl(err.transcript))
        sys.stderr.write(f"FAIL: {err}; losing branch in {cx}\n")
        return 1
    lines = [
        "t,branches,max_vertices,max_red,max_edges",
        f"{report.t},{report.branches},{report.max_vertices},"
        f"{report.max_red},{report.max_edges}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    sys.stderr.write(
        f"verified: all painters lose within {report.vertex_bound} insertions\n"
    )
    return 0


def _parse_hypergraph_spec(option: str, spec: str) -> hypergraph.Hypergraph:
    kind, _, rest = spec.partition(":")
    if kind == "file":
        try:
            return hypergraph.load(rest)
        except (ValueError, OSError) as err:
            raise ValueError(f"{option} {spec!r}: {err}") from None
    if kind in ("cycle", "clique"):
        try:
            size = int(rest)
        except ValueError:
            raise ValueError(
                f"{option} {spec!r}: expected an integer after '{kind}:', got {rest!r}"
            ) from None
        make = hypergraph.tight_cycle if kind == "cycle" else hypergraph.complete
        try:
            return make(3, size)
        except ValueError as err:
            raise ValueError(f"{option} {spec!r}: {err}") from None
    raise ValueError(f"{option}: expected cycle:S, clique:N or file:PATH, got {spec!r}")


def _cmd_hom(args) -> int:
    F = _parse_hypergraph_spec("--from", args.source)
    G = _parse_hypergraph_spec("--to", args.target)
    if F.k != G.k:  # cycle: and clique: specs are 3-uniform, so a file differs
        option, spec = (
            ("--to", args.target) if args.target.startswith("file:") else ("--from", args.source)
        )
        raise ValueError(f"{option} {spec!r}: uniformity mismatch: {F.k} vs {G.k}")
    phi = homomorphism.exists_homomorphism(F, G)
    if phi is None:
        sys.stdout.write("NONE\n")
    else:
        sys.stdout.write(" ".join(str(v) for v in phi) + "\n")
    return 0


def _cmd_poset(args) -> int:
    if args.t <= args.k:
        raise ValueError(
            f"--t {args.t} must exceed --k {args.k}: level 1 has a chain of t-k elements"
        )
    P = poset.build_J(args.level, args.t, args.k, cap=args.cap)
    witness = None
    if args.count_only:
        width = ""
    elif args.antichain:  # a maximum antichain, so its size is the width
        witness = poset.antichain_witness(P)
        width = str(len(witness))
    else:
        width = str(poset.max_antichain(P))
    lines = [
        "k,t,level,size,width",
        f"{args.k},{args.t},{args.level},{P.p},{width}",
    ]
    out = "\n".join(lines) + "\n"
    if witness is not None:
        out += "# antichain: " + " ".join(str(x) for x in witness) + "\n"
    _emit(out, args.out)
    return 0


def _cmd_bound(args) -> int:
    t = args.t
    vertex_cap, red_cap, edge_cap = game.resource_caps(t)
    vertices = args.vertices if args.vertices is not None else vertex_cap
    red = args.red_edges if args.red_edges is not None else red_cap
    total = args.total_edges if args.total_edges is not None else edge_cap
    if red > total:
        default = f" (the default at --t {t})"
        raise ValueError(
            f"--red-edges {red}{default if args.red_edges is None else ''} exceeds "
            f"--total-edges {total}{default if args.total_edges is None else ''}"
        )
    alpha = args.alpha if args.alpha is not None else 1.0 / t
    value = game.upper_bound_estimate(t, vertices, red, total, alpha)
    lines = [
        "t,alpha,vertices,red_edges,total_edges,log2_bound",
        f"{t},{alpha:.6g},{vertices},{red},{total},{value:.6f}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _comma_ints(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _int_in(low: int, high: float = math.inf):
    """An argparse type: an integer in [low, high], at least low by default."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if not low <= value <= high:
            top = f"{high}]" if high < math.inf else "inf)"
            raise argparse.ArgumentTypeError(f"{value} lies outside [{low}, {top}")
        return value
    return parse


def _float_in(low: float, high: float, *, open_low: bool = False):
    """An argparse type: a float in [low, high], or (low, high] when
    ``open_low``; nan fails both comparisons and is refused."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
        above = low < value if open_low else low <= value
        if not (above and value <= high):
            bracket = "(" if open_low else "["
            raise argparse.ArgumentTypeError(
                f"{text} lies outside {bracket}{low:g}, {high:g}]"
            )
        return value
    return parse


_seed = _int_in(0, MASK64)


def _out_path(text: str) -> str:
    """An argparse type: a file path whose directory exists, so that an
    output the run cannot write is refused before the run."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no directory {parent!r} for {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseykit",
        description="tight-cycle constructions, the ordered building game, "
        "and the supporting counting machinery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="lift a random graph and write the result")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=_int_in(3), default=3)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=_cmd_construct, needs_seed=True)

    p = sub.add_parser("check-cycles", help="scan a file for short tight cycles")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--max-s", type=int, required=True)
    p.add_argument("--counterexample-out", type=_out_path, default=None)
    p.set_defaults(func=_cmd_check_cycles)

    p = sub.add_parser("alpha", help="exact independence numbers of random lifts")
    p.add_argument("--n-values", type=_comma_ints, default=[16, 32, 64])
    p.add_argument("--seeds-per-n", type=_int_in(1), default=30)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--cap", type=_int_in(2), default=64)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=_cmd_alpha, needs_seed=True)

    p = sub.add_parser("steiner", help="randomized greedy partial triple systems")
    p.add_argument(
        "--t", type=_int_in(3, _STEINER_MAX_T), required=True,
        help=f"points, 3 to {_STEINER_MAX_T}",
    )
    p.add_argument("--seeds", type=_int_in(1), default=10)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", type=_out_path, default=None)
    p.add_argument("--packing-out", type=_out_path, default=None)
    p.set_defaults(func=_cmd_steiner, needs_seed=True)

    p = sub.add_parser("threshold", help="union-bound clique threshold per order")
    p.add_argument("--n", type=_int_in(2), nargs="+", required=True)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("game", help="play one building game against a painter")
    p.add_argument("--t", type=_int_in(3), required=True)
    p.add_argument(
        "--painter",
        choices=["all-red", "all-blue", "random", "greedy", "interactive"],
        required=True,
    )
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--p-red", type=_float_in(0.0, 1.0), default=0.5)
    p.add_argument("--safety-cap", type=_int_in(1), default=10000)
    p.add_argument("--transcript", type=_out_path, default=None)
    p.set_defaults(func=_cmd_game, needs_seed=True)

    p = sub.add_parser("game-verify", help="exhaust every painter reply tree")
    p.add_argument("--t", type=int, required=True, choices=[3, 4, 5])
    p.add_argument("--out", type=_out_path, default=None)
    p.add_argument("--counterexample-out", type=_out_path, default=None)
    p.set_defaults(func=_cmd_game_verify)

    p = sub.add_parser("hom", help="per-edge-injective homomorphism search")
    p.add_argument("--from", dest="source", required=True, metavar="SPEC")
    p.add_argument("--to", dest="target", required=True, metavar="SPEC")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("poset", help="iterated ideal posets: size and width")
    p.add_argument("--k", type=_int_in(3), required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--level", type=_int_in(1), required=True)
    p.add_argument("--antichain", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--cap", type=_int_in(1), default=poset.DEFAULT_IDEAL_CAP)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("bound", help="evaluate the log2 upper-bound certificate")
    p.add_argument("--t", type=_int_in(3), required=True)
    p.add_argument("--alpha", type=_float_in(0.0, 0.5, open_low=True), default=None)
    p.add_argument("--vertices", type=_int_in(1), default=None)
    p.add_argument("--red-edges", type=_int_in(0), default=None)
    p.add_argument("--total-edges", type=_int_in(0), default=None)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=_cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_seed", False) and args.seed is None:
        try:
            args.seed = _seed(os.environ.get("RAMSEY_SEED", "0"))
        except argparse.ArgumentTypeError as err:
            parser.error(f"RAMSEY_SEED: {err}")
    try:
        return args.func(args)
    except (ValueError, OSError, poset.IdealCapExceeded) as err:
        sys.stderr.write(f"ramseykit: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
