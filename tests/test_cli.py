import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import ramseykit
from oracles import reference_hosts
from ramseykit import game, hypergraph
from ramseykit.cli import main
from ramseykit.construction import (
    alpha_experiment,
    alpha_rows_to_csv,
    build_h3,
    sample_graph,
)
from ramseykit.game import upper_bound_estimate
from ramseykit.homomorphism import validate_homomorphism
from ramseykit.hypergraph import Hypergraph, complete, load, save, tight_cycle
from ramseykit.poset import Poset, build_J, max_antichain


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# construct / check-cycles


def test_construct_round_trip(tmp_path, capsys):
    out = tmp_path / "h.txt"
    assert run_cli("construct", "--n", "18", "--k", "3", "--seed", "7", "--out", str(out)) == 0
    assert "wrote" in capsys.readouterr().out
    H = load(out)
    assert H == build_h3(sample_graph(2, 18, 7))


def test_construct_single_edge_case(tmp_path):
    # seed 12 samples exactly the pairs {01, 02} on three vertices
    out = tmp_path / "tiny.txt"
    run_cli("construct", "--n", "3", "--k", "3", "--seed", "12", "--out", str(out))
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert body == ["3 3", "0 1 2"]


def test_construct_k4(tmp_path):
    out = tmp_path / "h4.txt"
    assert run_cli("construct", "--n", "10", "--k", "4", "--seed", "3", "--out", str(out)) == 0
    assert load(out).k == 4


@pytest.mark.parametrize("n,k", [(2, 4), (0, 3), (-1, 3)])
def test_construct_small_n_is_usage_error(tmp_path, capsys, n, k):
    out = tmp_path / "h.txt"
    assert run_cli("construct", "--n", str(n), "--k", str(k), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"ramseykit: --n {n} must be at least {k - 1}, one less than --k {k}: "
        "a source edge has k-1 vertices\n"
    )
    assert not out.exists()


def test_check_cycles_pass(tmp_path, capsys):
    path = tmp_path / "h.txt"
    run_cli("construct", "--n", "20", "--seed", "1", "--out", str(path))
    capsys.readouterr()
    assert run_cli("check-cycles", "--in", str(path), "--max-s", "10") == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "s,cycle_found"
    assert "PASS" in captured.err


def test_check_cycles_fail_writes_counterexample(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    save(tight_cycle(3, 5), path)
    cx = tmp_path / "bad.txt"
    code = run_cli(
        "check-cycles", "--in", str(path), "--max-s", "8",
        "--counterexample-out", str(cx),
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().err
    text = cx.read_text()
    assert "s=5" in text and "0 1 2 3 4" in text


def test_check_cycles_default_counterexample_path(tmp_path, capsys):
    path = tmp_path / "c7.txt"
    save(tight_cycle(3, 7), path)
    assert run_cli("check-cycles", "--in", str(path), "--max-s", "7") == 1
    capsys.readouterr()
    assert (tmp_path / "c7.txt.counterexample.txt").exists()


# SHA-256 of the counterexample file check-cycles --max-s 12 writes for the
# third reference host, frozen from the single sweep to depth 12
HOST_COUNTEREXAMPLE_DIGEST = "43d2ad79c1ddf6b2d5c3d0226691de332fb0f7ec92ab740e67e36d41fc68ddfc"


def test_check_cycles_counterexample_matches_frozen_digest(tmp_path, capsys):
    path = tmp_path / "host.txt"
    save(reference_hosts()[2], path)
    cx = tmp_path / "cx.txt"
    code = run_cli(
        "check-cycles", "--in", str(path), "--max-s", "12",
        "--counterexample-out", str(cx),
    )
    assert code == 1
    capsys.readouterr()
    lines = cx.read_text().splitlines()
    assert [ln.split()[0] for ln in lines[1:]] == [f"s={s}" for s in (5, 7, 8, 10, 11)]
    assert hashlib.sha256(cx.read_bytes()).hexdigest() == HOST_COUNTEREXAMPLE_DIGEST


def test_check_cycles_scans_each_length_once(tmp_path, capsys, monkeypatch):
    # the counterexample reuses the spectrum's witnesses instead of searching again
    path = tmp_path / "host.txt"
    save(reference_hosts()[2], path)
    scanned = []
    scan = hypergraph._scan_cycles

    def counting_scan(H, s):
        scanned.append(s)
        return scan(H, s)

    monkeypatch.setattr(hypergraph, "_scan_cycles", counting_scan)
    code = run_cli(
        "check-cycles", "--in", str(path), "--max-s", "12",
        "--counterexample-out", str(tmp_path / "cx.txt"),
    )
    assert code == 1
    capsys.readouterr()
    assert scanned == list(range(4, 13))


@pytest.mark.parametrize("k,max_s", [(3, 3), (3, 0), (3, -3), (4, 3)])
def test_check_cycles_empty_range_is_usage_error(tmp_path, capsys, k, max_s):
    path = tmp_path / "h.txt"
    save(tight_cycle(k, 6), path)
    assert run_cli("check-cycles", "--in", str(path), "--max-s", str(max_s)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "below the first scanned length" in captured.err
    assert "PASS" not in captured.err


@pytest.mark.parametrize("k,n,edges", [(3, 3, [(0, 1, 2)]), (4, 3, []), (3, 0, [])])
def test_check_cycles_too_few_vertices_is_usage_error(tmp_path, capsys, k, n, edges):
    path = tmp_path / "h.txt"
    save(Hypergraph(k, n, edges), path)
    assert run_cli("check-cycles", "--in", str(path), "--max-s", "12") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lo = 4 if k == 3 else k
    assert f"n={n} vertices, fewer than the first scanned length {lo}" in captured.err
    assert "PASS" not in captured.err


def test_check_cycles_missing_file_is_usage_error(tmp_path, capsys):
    code = run_cli("check-cycles", "--in", str(tmp_path / "nope.txt"), "--max-s", "6")
    assert code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# CSV emitters


def test_alpha_csv_matches_library(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert run_cli(
        "alpha", "--n-values", "10,12", "--seeds-per-n", "2",
        "--seed", "3", "--out", str(out),
    ) == 0
    expect = alpha_rows_to_csv(alpha_experiment([10, 12], 2, 3))
    assert out.read_text() == expect


# SHA-256 of the stdout of alpha --n-values 16,32,48 --seeds-per-n 2 --seed 0,
# frozen before the independence search bounded children in their parent
ALPHA_GRID_DIGEST = "5dd752c8678f554597651c5ae751d066864725c0568cb43f83a9d3e6a265fa1b"


def test_alpha_grid_stdout_matches_frozen_digest(capsys):
    assert run_cli(
        "alpha", "--n-values", "16,32,48", "--seeds-per-n", "2", "--seed", "0",
    ) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ALPHA_GRID_DIGEST


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--n-values", "1,100"], "--n-values 1 lies outside [2, --cap 64]"),
        (["--n-values", "10,100"], "--n-values 100 lies outside [2, --cap 64]"),
        (["--n-values", "10", "--cap", "8"], "--n-values 10 lies outside [2, --cap 8]"),
    ],
)
def test_alpha_bad_grid_is_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "a.csv"
    assert run_cli("alpha", "--seeds-per-n", "1", *argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ramseykit: {message}\n"
    assert not out.exists()


def test_steiner_csv_and_packing(tmp_path, capsys):
    pack = tmp_path / "p.txt"
    assert run_cli(
        "steiner", "--t", "9", "--seeds", "3", "--seed", "0",
        "--packing-out", str(pack),
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,seed,size"
    assert len(lines) == 4
    best = max(int(ln.split(",")[2]) for ln in lines[1:])
    triples = [
        tuple(int(x) for x in ln.split())
        for ln in pack.read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert len(triples) == best


@pytest.mark.parametrize("seed, seeds", [
    ("18446744073709551615", "2"),
    ("18446744073709551600", "17"),
])
def test_steiner_seed_range_past_u64_is_usage_error(tmp_path, capsys, seed, seeds):
    # checked before the first packing: the message names the two options
    # as typed, not a seed past the range
    pack = tmp_path / "p.txt"
    out = tmp_path / "s.csv"
    code = run_cli(
        "steiner", "--t", "9", "--seed", seed, "--seeds", seeds,
        "--out", str(out), "--packing-out", str(pack),
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"ramseykit: --seed {seed} plus --seeds {seeds} runs past "
        "the largest seed 18446744073709551615\n"
    )
    assert not pack.exists() and not out.exists()


def test_steiner_last_seed_in_range_runs(capsys):
    assert run_cli("steiner", "--t", "9", "--seed", "18446744073709551614", "--seeds", "2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(",")[1] for ln in lines[1:]] == [
        "18446744073709551614", "18446744073709551615",
    ]


def test_steiner_readme_example_frozen(tmp_path, capsys, monkeypatch):
    # `steiner --t 21 --seeds 10 --packing-out best.txt` from the README,
    # with RAMSEY_SEED unset; SHA-256 of stdout and of the file, taken
    # from the tuple-pool implementation
    monkeypatch.delenv("RAMSEY_SEED", raising=False)
    pack = tmp_path / "best.txt"
    code = run_cli("steiner", "--t", "21", "--seeds", "10", "--packing-out", str(pack))
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "433f5d6c0513d3972d84579715915bf1d949abac7b43e52ef40b475abd6825ba"
    )
    assert hashlib.sha256(pack.read_bytes()).hexdigest() == (
        "3897f0f1f9285643e9b51ccacee0097aed944ee167ea55712417889329675a97"
    )


def test_steiner_help_names_the_ceiling(capsys):
    with pytest.raises(SystemExit):
        run_cli("steiner", "--help")
    assert "points, 3 to 300" in capsys.readouterr().out


def test_threshold_csv(capsys):
    huge = 10**310  # 311 digits, beyond the float range
    assert run_cli("threshold", "--n", "1000", "10000", str(huge)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,threshold,threshold_over_log2n"
    assert lines[1].startswith("1000,148,")
    assert lines[2].startswith("10000,246,")
    assert lines[3].startswith(f"{huge},36921,")


# ---------------------------------------------------------------------------
# games


def test_game_all_red_summary(capsys):
    assert run_cli("game", "--t", "8", "--painter", "all-red") == 0
    out = capsys.readouterr().out
    assert "outcome=RedK4Minus" in out
    assert "vertices_used=4" in out and "red_edges=5" in out


def test_game_transcript_written(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    assert run_cli(
        "game", "--t", "5", "--painter", "random", "--seed", "9",
        "--transcript", str(path),
    ) == 0
    records = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert records[0]["event"] == "vertex"
    assert records[-1]["event"] == "win"
    capsys.readouterr()


def test_game_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        run_cli("game", "--t", "6", "--painter", "random", "--seed", "4",
                "--transcript", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_game_interactive_stream(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("B\nB\nB\nB\nB\nB\n"))
    assert run_cli("game", "--t", "3", "--painter", "interactive") == 0
    out = capsys.readouterr().out
    assert "color [R/B]" in out
    assert "outcome=BlueClique" in out


def test_game_verify_t3_line(capsys):
    assert run_cli("game-verify", "--t", "3") == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "t,branches,max_vertices,max_red,max_edges",
        "3,6,4,5,5",
    ]
    assert "verified" in captured.err


def test_game_verify_t5_line(capsys):
    assert run_cli("game-verify", "--t", "5") == 0
    assert capsys.readouterr().out.splitlines() == [
        "t,branches,max_vertices,max_red,max_edges",
        "5,120789411,16,20,41",
    ]


def test_game_verify_failure_writes_replayable_transcript(
    tmp_path, monkeypatch, capsys
):
    # caps of 5 vertices and 20 edges: some painter outlasts them at t=4
    monkeypatch.setattr(game, "resource_caps", lambda t: (5, 16, 20))
    path = tmp_path / "cx.jsonl"
    assert run_cli("game-verify", "--t", "4", "--counterexample-out", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("FAIL: t=4: still running after")
    assert "Traceback" not in captured.err
    records = [json.loads(ln) for ln in path.read_text().splitlines()]
    colors = [rec["color"] for rec in records if rec["event"] == "edge"]
    with pytest.raises(game.GameAborted) as info:
        game.run_game(4, game.scripted_painter(colors))
    assert info.value.transcript == records


def test_game_safety_cap_message_counts_vertices(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ("game", "--t", "12", "--painter", "all-blue", "--safety-cap", "3")
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert err == "FAIL: no win within 3 vertices; transcript in game-counterexample.jsonl\n"
    # the cap counts vertices, not transcript events
    events = (tmp_path / "game-counterexample.jsonl").read_text().splitlines()
    assert len(events) > 3


# ---------------------------------------------------------------------------
# hom / poset / bound


def test_hom_none(capsys):
    assert run_cli("hom", "--from", "cycle:5", "--to", "clique:4") == 0
    assert capsys.readouterr().out == "NONE\n"


def test_hom_witness_revalidates(capsys):
    assert run_cli("hom", "--from", "cycle:7", "--to", "clique:4") == 0
    phi = tuple(int(x) for x in capsys.readouterr().out.split())
    assert validate_homomorphism(tight_cycle(3, 7), complete(3, 4), phi)


def test_hom_file_source(tmp_path, capsys):
    path = tmp_path / "c6.txt"
    save(tight_cycle(3, 6), path)
    assert run_cli("hom", "--from", f"file:{path}", "--to", "clique:4") == 0
    assert capsys.readouterr().out != "NONE\n"


def test_hom_bad_spec_usage_error(capsys):
    assert run_cli("hom", "--from", "square:4", "--to", "clique:4") == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "source,target,message",
    [
        ("cycle:x", "clique:3", "--from 'cycle:x': expected an integer after 'cycle:', got 'x'"),
        ("cycle:5", "clique:", "--to 'clique:': expected an integer after 'clique:', got ''"),
        ("cycle:5", "cube:3", "--to: expected cycle:S, clique:N or file:PATH, got 'cube:3'"),
        ("cycle:2", "clique:4", "--from 'cycle:2': cycle length 2 is below the uniformity 3"),
        ("cycle:5", "clique:-1", "--to 'clique:-1': vertex count must be nonnegative, got -1"),
        ("file:bad.txt", "clique:4", "--from 'file:bad.txt': line 2: expected 3 vertices, got 2"),
        ("cycle:5", "file:bad.txt", "--to 'file:bad.txt': line 2: expected 3 vertices, got 2"),
        ("file:none.txt", "clique:4",
         "--from 'file:none.txt': [Errno 2] No such file or directory: 'none.txt'"),
        ("file:k4.txt", "clique:4", "--from 'file:k4.txt': uniformity mismatch: 4 vs 3"),
        ("cycle:5", "file:k4.txt", "--to 'file:k4.txt': uniformity mismatch: 3 vs 4"),
    ],
)
def test_hom_bad_spec_names_option(capsys, tmp_path, monkeypatch, source, target, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text("3 5\n0 1\n", encoding="utf-8")
    (tmp_path / "k4.txt").write_text("4 5\n0 1 2 3\n", encoding="utf-8")
    assert run_cli("hom", "--from", source, "--to", target) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ramseykit: {message}\n"


def test_poset_row(capsys):
    assert run_cli("poset", "--k", "3", "--t", "10", "--level", "3") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["k,t,level,size,width", "3,10,3,45,5"]


def test_poset_count_only(capsys):
    assert run_cli("poset", "--k", "3", "--t", "10", "--level", "2", "--count-only") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "3,10,2,16,"


def test_poset_antichain_witness(capsys):
    assert run_cli("poset", "--k", "4", "--t", "9", "--level", "3", "--antichain") == 0
    lines = capsys.readouterr().out.splitlines()
    width = int(lines[1].split(",")[4])
    marker = "# antichain: "
    assert lines[2].startswith(marker)
    assert len(lines[2][len(marker):].split()) == width
    for k in (3, 4):
        for t in range(k + 1, k + 7):
            for level in (1, 2, 3):
                argv = ("--k", str(k), "--t", str(t), "--level", str(level))
                assert run_cli("poset", *argv, "--antichain") == 0
                lines = capsys.readouterr().out.splitlines()
                width = max_antichain(build_J(level, t, k))
                assert lines[1].split(",")[4] == str(width), (k, t, level)
                assert len(lines[2][len(marker):].split()) == width


@pytest.mark.parametrize("k, t", [(3, 3), (4, 3), (3, -1)])
def test_poset_t_not_above_k_names_both_options(tmp_path, capsys, k, t):
    out = tmp_path / "poset.csv"
    assert run_cli("poset", "--k", str(k), "--t", str(t), "--level", "2", "--out", str(out)) == 2
    assert capsys.readouterr() == (
        "", f"ramseykit: --t {t} must exceed --k {k}: level 1 has a chain of t-k elements\n"
    )
    assert not out.exists()


def test_poset_cap_exceeded_is_refused(capsys):
    assert run_cli("poset", "--k", "3", "--t", "30", "--level", "3",
                   "--cap", "10") == 2
    capsys.readouterr()


def test_bound_line(capsys):
    assert run_cli("bound", "--t", "10") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,alpha,vertices,red_edges,total_edges,log2_bound"
    t, alpha, ell, a, m, val = lines[1].split(",")
    assert (t, ell, a, m) == ("10", "91", "274", "1003")
    assert float(val) == pytest.approx(
        upper_bound_estimate(10, 91, 274, 1003, 0.1), abs=1e-4
    )


def test_bound_explicit_arguments(capsys):
    assert run_cli("bound", "--t", "3", "--alpha", "0.5", "--vertices", "4",
                   "--red-edges", "5", "--total-edges", "5") == 0
    assert capsys.readouterr().out.splitlines()[1].endswith("7.000000")


@pytest.mark.parametrize("argv, message", [
    (["--red-edges", "9999999"],
     "--red-edges 9999999 exceeds --total-edges 128 (the default at --t 5)"),
    (["--total-edges", "3"], "--red-edges 64 (the default at --t 5) exceeds --total-edges 3"),
    (["--red-edges", "10", "--total-edges", "3"], "--red-edges 10 exceeds --total-edges 3"),
])
def test_bound_red_above_total_names_both_options(tmp_path, capsys, argv, message):
    out = tmp_path / "bound.csv"
    assert run_cli("bound", "--t", "5", *argv, "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"ramseykit: {message}\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# environment and plumbing


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", [
    ("construct", "--n", "12", "--out", "{dir}/lift.txt"),
    ("game", "--t", "5", "--painter", "random", "--transcript", "{dir}/game.jsonl"),
    ("alpha", "--n-values", "10", "--seeds-per-n", "1", "--out", "{dir}/alpha.csv"),
    ("steiner", "--t", "9", "--seeds", "1", "--out", "{dir}/steiner.csv",
     "--packing-out", "{dir}/best.txt"),
])
def test_seed_outside_u64_names_the_option(tmp_path, capsys, command, seed):
    argv = [arg.format(dir=tmp_path) for arg in command]
    with pytest.raises(SystemExit) as info:
        run_cli(*argv, "--seed", seed)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --seed: {seed} lies outside [0, 18446744073709551615]" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, option, value, message", [
    (("game", "--t", "5", "--painter", "random", "--transcript", "{dir}/game.jsonl"),
     "--p-red", value, message)
    for value, message in [
        ("2", "2 lies outside [0, 1]"),
        ("-0.1", "-0.1 lies outside [0, 1]"),
        ("nan", "nan lies outside [0, 1]"),
        ("inf", "inf lies outside [0, 1]"),
        ("half", "expected a number, got 'half'"),
    ]
] + [
    (("bound", "--t", "5", "--out", "{dir}/bound.csv"), "--alpha", value, message)
    for value, message in [
        ("0.9", "0.9 lies outside (0, 0.5]"),
        ("0", "0 lies outside (0, 0.5]"),
        ("-0.25", "-0.25 lies outside (0, 0.5]"),
        ("nan", "nan lies outside (0, 0.5]"),
        ("", "expected a number, got ''"),
    ]
] + [
    # written as a separate word, -inf is read as an option string and
    # refused with "expected one argument"
    (("game", "--t", "5", "--painter", "random", "--transcript", "{dir}/game.jsonl"),
     "--p-red", "-inf", "-inf lies outside [0, 1]"),
    (("bound", "--t", "5", "--out", "{dir}/bound.csv"),
     "--alpha", "-inf", "-inf lies outside (0, 0.5]"),
])
def test_float_outside_domain_names_the_option(tmp_path, capsys, command, option, value, message):
    argv = [arg.format(dir=tmp_path) for arg in command]
    with pytest.raises(SystemExit) as info:
        run_cli(*argv, f"{option}={value}")
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: {message}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# the required options of each subcommand, with every output in {dir}; the
# option under test is appended, and argparse checks each occurrence of an
# option, so a value given again last is checked too
_DOMAIN_BASES = {
    "construct": ("--n", "10", "--out", "{dir}/lift.txt"),
    "alpha": ("--n-values", "10", "--seeds-per-n", "1", "--out", "{dir}/alpha.csv"),
    "steiner": ("--t", "9", "--seeds", "1", "--out", "{dir}/steiner.csv",
                "--packing-out", "{dir}/best.txt"),
    "threshold": ("--n", "1000", "--out", "{dir}/threshold.csv"),
    "game": ("--t", "5", "--painter", "all-red", "--transcript", "{dir}/game.jsonl"),
    "poset": ("--k", "3", "--t", "10", "--level", "2", "--out", "{dir}/poset.csv"),
    "bound": ("--t", "5", "--out", "{dir}/bound.csv"),
}


def _int_domain_cases():
    # command, option, least value, greatest value (None: unbounded) and
    # values tried besides the two ends' neighbours and a non-number
    domains = [
        ("construct", "--k", 3, None, ["0"]),
        ("alpha", "--seeds-per-n", 1, None, ["-2"]),
        ("alpha", "--cap", 2, None, []),
        ("steiner", "--t", 3, 300, []),
        ("steiner", "--seeds", 1, None, ["-2"]),
        ("threshold", "--n", 2, None, []),
        ("game", "--t", 3, None, []),
        ("game", "--safety-cap", 1, None, []),
        ("poset", "--k", 3, None, ["-3"]),
        ("poset", "--level", 1, None, []),
        ("poset", "--cap", 1, None, []),
        ("bound", "--t", 3, None, ["0", "-1"]),
        ("bound", "--vertices", 1, None, []),
        ("bound", "--red-edges", 0, None, []),
        ("bound", "--total-edges", 0, None, []),
    ]
    for command, option, low, high, extra in domains:
        top = "inf)" if high is None else f"{high}]"
        outside = [str(low - 1)] + ([] if high is None else [str(high + 1)]) + extra
        for value in outside:
            yield command, option, value, f"{value} lies outside [{low}, {top}"
        yield command, option, "x", "expected an integer, got 'x'"
    for value in ("", ",", "x"):
        message = f"expected comma-separated integers, got {value!r}"
        yield "alpha", "--n-values", value, message


@pytest.mark.parametrize("command, option, value, message", [
    pytest.param(*case, id=f"{case[0]} {case[1]}={case[2]}") for case in _int_domain_cases()
])
def test_int_outside_domain_names_the_option(
    tmp_path, monkeypatch, capsys, command, option, value, message
):
    monkeypatch.chdir(tmp_path)  # where game would write its counterexample
    argv = [arg.format(dir=tmp_path) for arg in _DOMAIN_BASES[command]]
    with pytest.raises(SystemExit) as info:
        run_cli(command, *argv, f"{option}={value}")
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: {message}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# every output option, each with the required options of its subcommand
# (outputs in {dir}; check-cycles' input is never read, as parsing stops first)
_OUTPUT_CASES = [
    (command, "--out") for command in _DOMAIN_BASES if command != "game"
] + [
    ("steiner", "--packing-out"),
    ("game", "--transcript"),
    ("game-verify", "--out"),
    ("game-verify", "--counterexample-out"),
    ("check-cycles", "--counterexample-out"),
]
_OUTPUT_BASES = {
    **_DOMAIN_BASES,
    "game-verify": ("--t", "3", "--out", "{dir}/verify.csv"),
    "check-cycles": ("--in", "{dir}/h.txt", "--max-s", "6"),
}


@pytest.mark.parametrize("command, option", [
    pytest.param(*case, id=" ".join(case)) for case in _OUTPUT_CASES
])
def test_output_in_missing_directory_names_the_option(
    tmp_path, monkeypatch, capsys, command, option
):
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(dir=tmp_path) for arg in _OUTPUT_BASES[command]]
    target = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as info:
        run_cli(command, *argv, f"{option}={target}")
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: no directory '{target.parent}' for '{target}'" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value, message", [
    ("", "expected a file path, got ''"),
    ("{dir}", "'{dir}' is a directory"),
])
def test_output_that_names_no_file_is_refused(tmp_path, capsys, value, message):
    with pytest.raises(SystemExit) as info:
        run_cli("threshold", "--n", "1000", f"--out={value.format(dir=tmp_path)}")
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --out: {message.format(dir=tmp_path)}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, line", [
    (("game", "--t", "5", "--painter", "random", "--seed", "3", "--p-red", "1"),
     "t=5 outcome=RedK4Minus vertices_used=4 red_edges=5 total_edges=5\n"),
    (("bound", "--t", "5", "--alpha", "0.5"), "5,0.5,21,64,128,132.392317\n"),
])
def test_float_domain_keeps_its_ends(capsys, argv, line):
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out.endswith(line)


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("RAMSEY_SEED", "7")
    a = tmp_path / "a.txt"
    run_cli("construct", "--n", "12", "--out", str(a))
    b = tmp_path / "b.txt"
    monkeypatch.delenv("RAMSEY_SEED")
    run_cli("construct", "--n", "12", "--seed", "7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_invalid(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("RAMSEY_SEED", "banana")
    with pytest.raises(SystemExit) as info:
        run_cli("construct", "--n", "5", "--out", str(tmp_path / "x.txt"))
    assert info.value.code == 2
    assert "RAMSEY_SEED: expected an integer, got 'banana'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli()
    assert info.value.code == 2
    capsys.readouterr()


def _child_env() -> dict[str, str]:
    """os.environ with PYTHONPATH led by the directory this ramseykit came from.

    pytest's own path setting reaches only its process, so a child started
    from a checkout would not find the package otherwise.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(ramseykit.__file__)))
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ramseykit.cli", "threshold", "--n", "1000"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("1000,148,")


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "ramseykit", "--help"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ramseykit ")


def test_import_loads_no_third_party_numerics():
    code = "import sys, ramseykit; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
