"""One measured process: import ramseykit, generate inputs, run passes.

Started by run.py, once per setup sample (``--setup-only``) and once for
the measurement.  It prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 0

sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402  (imports ramseykit)


def _pass(name: str, plan, run_id: str, traced: bool, scratch: str):
    """One full pass; returns its recorder and its wall time in seconds."""
    rec = spans.Recorder(run_id, traced)
    run = workloads.WORKLOADS[name][1]
    rec.begin(f"pass.{name}")
    start = time.perf_counter()
    run(rec, plan, scratch)
    wall = time.perf_counter() - start
    rec.end()
    return rec, wall


def _digest(answers) -> str:
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


def _measure(args, plan, scratch: str) -> dict:
    """Untraced passes over the same inputs until --seconds is used up."""
    recs, walls = [], []
    started = time.perf_counter()
    while True:
        rec, wall = _pass(args.workload, plan, f"{args.workload}-{args.seed}", False, scratch)
        recs.append(rec)
        walls.append(wall)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.mean(walls) > args.seconds:
            break
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    failures = [f for r in recs for f in r.failures]
    digests = {_digest(r.answers) for r in recs}
    if len(digests) != 1:
        failed += 1
        failures.append("passes over the same inputs gave different answers")
    digest = _digest(recs[0].answers)
    expected = _expected_digest(args.workload)
    if args.seed == DEFAULT_SEED and expected is not None and digest != expected:
        failed += 1
        failures.append(f"answer digest {digest[:16]} differs from the recorded one")
    # Each query's latency is scaled to nominal host speed, then taken as
    # its median over the passes, so a burst of load from outside the
    # process that slows one pass does not count either.  The raw
    # figures go into the report for comparison.
    latencies = [statistics.median(times) for times in zip(*(r.scaled_latencies() for r in recs))]
    raw = [statistics.median(times) for times in zip(*(r.latencies for r in recs))]
    return {
        "passes": len(recs),
        "pass_wall_s": walls,
        "pass_slowdown": [r.slowdown for r in recs],
        "raw_wall_s": sum(raw),
        "raw_query_p50_ms": spans.percentile(raw, 50) * 1e3,
        "raw_query_p90_ms": spans.percentile(raw, 90) * 1e3,
        "queries_per_pass": recs[0].attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digest": digest,
        "wall_s": sum(latencies),
        "query_p50_ms": spans.percentile(latencies, 50) * 1e3,
        "query_p90_ms": spans.percentile(latencies, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _expected_digest(workload: str):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def _trace(args, plans, scratch: str) -> dict:
    """One untraced and one traced pass of the named workload, then one
    traced pass of each other workload, so every layer gets spans."""
    run_id = f"{args.workload}-{args.seed}-trace"
    _, untraced_wall = _pass(args.workload, plans[args.workload], run_id, False, scratch)
    order = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
    recs, walls = [], {}
    for name in order:
        rec, walls[name] = _pass(name, plans[name], run_id, True, scratch)
        recs.append(rec)

    # thread setting: the same alpha cells with one and with two threads
    threads = spans.Recorder(run_id, True)
    threads.begin("threads")
    grid = plans["random-host"]["alpha_grid"]
    one = workloads.alpha_grid(threads, *grid, 1)
    two = workloads.alpha_grid(threads, *grid, 2)
    threads.end()
    csv = workloads.construction.alpha_rows_to_csv
    if one is None or two is None or csv(one) != csv(two):
        threads.fail("construction.alpha_experiment", "CSV differs between 1 and 2 threads")
    timed = {s["note"]: s["end"] - s["start"] for s in threads.spans if s["note"]}

    # span ids count from 0 in each recorder; shift them to be unique in the run
    all_spans = []
    for r in recs + [threads]:
        base = len(all_spans)
        all_spans += [dict(s, id=s["id"] + base,
                           parent=None if s["parent"] is None else s["parent"] + base)
                      for s in r.spans]
    layers = spans.layer_table(all_spans)
    counts: dict[str, float] = {}
    for r in recs:
        for key, value in r.counts.items():
            counts[key] = counts.get(key, 0) + value
    metrics = layer_metrics([s for r in recs for s in r.spans], counts)
    metrics["construction.alpha_threads_ratio"] = (
        timed["threads2"] / timed["threads1"] if {"threads1", "threads2"} <= timed.keys() else 0.0)
    metrics["trace.overhead_frac"] = walls[args.workload] / untraced_wall - 1
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": all_spans, "layers": layers}, fh)
    everything = recs + [threads]
    return {
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
        "failures": [f for r in everything for f in r.failures][:20],
        "layers": layers,
        "per_layer": metrics,
    }


def layer_metrics(all_spans, counts) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from spans and counts."""
    total: dict[tuple, float] = {}
    calls: dict[tuple, int] = {}
    for s in all_spans:
        for key in {(s["name"], None), (s["name"], s["note"])}:
            total[key] = total.get(key, 0.0) + s["end"] - s["start"]
            calls[key] = calls.get(key, 0) + 1

    def t(name, note=None):
        return total.get((name, note), 0.0)

    def c(name, note=None):
        return calls.get((name, note), 0)

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    h, co, g, p, hm = "hypergraph.", "construction.", "game.", "poset.", "homomorphism."
    return {
        h + "absent_scan_s": t(h + "contains_tight_cycle", "absent"),
        h + "absent_scan_calls": c(h + "contains_tight_cycle", "absent"),
        h + "present_scan_s": t(h + "cycle_spectrum") + t(h + "contains_tight_cycle", "present"),
        h + "witness_s": t(h + "find_tight_cycle"),
        h + "lengths_found_frac": ratio(h + "lengths_found", h + "lengths_scanned"),
        h + "alpha_k3_s": t(h + "independence_number_exact", "k3"),
        h + "alpha_k4_s": t(h + "independence_number_exact", "k4"),
        h + "alpha_calls": c(h + "independence_number_exact"),
        co + "sample_graph_s": t(co + "sample_graph"),
        co + "lift_s": t(co + "build_h3") + t(co + "build_hk"),
        co + "lift_edges": counts.get(co + "lift_edges", 0),
        co + "spectrum_report_s": t(co + "mod_spectrum_report"),
        co + "alpha_experiment_s": t(co + "alpha_experiment"),
        co + "steiner_s": t(co + "greedy_steiner_packing"),
        co + "steiner_fill": ratio(co + "steiner_triples", co + "steiner_pairs"),
        co + "threshold_s": t(co + "union_bound_threshold"),
        g + "verify_raw_s": t(g + "exhaustive_verify", "raw"),
        g + "verify_memo_s": t(g + "exhaustive_verify", "memo"),
        g + "branches": counts.get(g + "branches", 0),
        g + "play_s": t(g + "run_game"),
        g + "games": counts.get(g + "games", 0),
        g + "edges_exposed": counts.get(g + "edges_exposed", 0),
        p + "lattice_s": t(p + "build_J"),
        p + "elements": counts.get(p + "elements", 0),
        p + "comparable_pairs": counts.get(p + "comparable_pairs", 0),
        p + "width_s": t(p + "max_antichain"),
        p + "witness_s": t(p + "antichain_witness"),
        p + "ideals_s": t(p + "ideals"),
        hm + "found_s": t(hm + "exists_homomorphism", "found"),
        hm + "none_s": t(hm + "exists_homomorphism", "none"),
        hm + "calls": c(hm + "exists_homomorphism"),
        hm + "validate_s": t(hm + "validate_homomorphism"),
        "cli.main_s": t("cli.main"),
        "cli.calls": c("cli.main"),
        "cli.bytes_out": counts.get("cli.bytes_out", 0),
    }


def environment() -> dict:
    """What the numbers depend on, so a silent backend switch shows."""
    import numpy
    import scipy

    kernels = None
    if importlib.util.find_spec("ramseykit.kernels") is not None:
        from ramseykit import kernels as module

        kernels = bool(module.AVAILABLE)
    sources = hashlib.sha256()
    package = os.path.join(ROOT, "src", "ramseykit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                sources.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_available": kernels,
        "commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # the README examples run with the CLI's own defaults
    os.environ.pop("RAMSEY_SEED", None)
    os.environ.pop("RAMSEY_MAX_THREADS", None)

    names = list(workloads.WORKLOADS) if args.trace else [args.workload]
    plans = {name: workloads.WORKLOADS[name][0](args.seed) for name in names}
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    os.makedirs(OUT, exist_ok=True)
    # a fixed relative path, so the CLI output that names it is the same every run
    scratch = os.path.relpath(os.path.join(OUT, "files"), ROOT)
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.trace:
            result = _trace(args, plans, scratch)
        else:
            result = _measure(args, plans[args.workload], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["ready"] = ready
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
