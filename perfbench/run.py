"""ramseykit benchmark: checked workloads, end-to-end and per-layer metrics.

Run from the root of a ramseykit checkout:

    python3 perfbench/run.py --workload lift-certify --seed 1 --seconds 35 --trace 0

Each run starts fresh interpreters: SETUP_SAMPLES - 1 that only set up
(import ramseykit and generate the inputs) and one that sets up and then
measures.  ``setup_s`` is the median time from launch to ready over all
of them.  With ``--trace 0`` the measuring process repeats untraced
passes over the workload's inputs for ``--seconds`` and reports
latencies scaled to nominal host speed (spans.calibrate); with
``--trace 1`` it makes the traced passes behind the per-layer metrics,
whose times are not scaled.  The last
stdout line is the JSON result; the line before it is the full report
(fail fraction, query counts, environment stamp).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("lift-certify", "random-host", "exact-certify")
SETUP_SAMPLES = 5
DEADLINE_S = 170  # every run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "_fill")):
        return "ratio"
    if name == "cli.bytes_out":
        return "bytes"
    return "count"


def _launch(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker, wait for it, return (launch time, its JSON line)."""
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("perfbench: worker ran past the deadline")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return launched, json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "ramseykit", "__init__.py")):
        sys.stderr.write("perfbench: run from a ramseykit checkout (src/ramseykit missing)\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            launched, probe = _launch(common + ["--setup-only"], deadline)
            setup.append(probe["ready"] - launched)
    launched, result = _launch(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setup.append(result["ready"] - launched)

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in result["per_layer"].items()}
    else:
        values = {name: result[name] for name in END_TO_END_UNITS if name != "setup_s"}
        values["setup_s"] = statistics.median(setup)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    report = {key: value for key, value in result.items() if key not in ("per_layer", "ready")}
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  fail_frac={"value": failed / attempted, "unit": "ratio"},
                  setup_samples_s=setup, metrics=metrics)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
