"""Query timing, spans and the arithmetic the report is built from.

A :class:`Recorder` times every query of one pass and samples the host's
speed between queries.  With tracing on it also keeps one span per call
into a ramseykit module: name, start, end, parent span and run id.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import math
import statistics
import time

# A percentile is reported only when at least this many samples lie
# beyond it, so the tail it describes is not one or two outliers.
MIN_BEYOND = 10

# The host is shared and its speed drifts by 10-30 % over tens of
# seconds.  A fixed piece of pure-Python work, timed between queries,
# tracks that drift; latencies are scaled by its median over a pass to
# the speed at which it takes CALIBRATION_NOMINAL_S (README.md).
CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW = 9
CALIBRATION_NOMINAL_S = 1.0e-3


def calibrate() -> float:
    """Seconds taken by the fixed calibration work."""
    start = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(3000):
        key = (i * 7919) & 511
        acc = (acc + table.get(key, i) * 31 + i) & 0xFFFFFF
        table[key] = acc
    return time.perf_counter() - start


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile, refused without MIN_BEYOND samples beyond it."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it, "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of [start, end] its children cover.

    ``children`` are (start, end) pairs; overlaps are counted once and
    parts outside the parent are ignored.
    """
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


class Recorder:
    """Times queries, counts failures and, when traced, records spans."""

    def __init__(self, run_id: str, traced: bool):
        self.run_id = run_id
        self.spans: list[dict] | None = [] if traced else None
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.answers: list = []
        self.counts: dict[str, float] = {}
        self.calibration: list[float] = []
        self._calibration_index: list[int] = []  # latest sample before each query
        self._calibrated_at = -math.inf
        self._parent: int | None = None

    def begin(self, name: str) -> None:
        """Open the pass span that the following query spans hang under."""
        if self.spans is not None:
            self._parent = self._add(name, time.perf_counter(), None, None)

    def end(self) -> None:
        if self.spans is not None and self._parent is not None:
            self.spans[self._parent]["end"] = time.perf_counter()
            self._parent = None

    def _add(self, name, start, end, note) -> int:
        self.spans.append({
            "id": len(self.spans), "parent": self._parent, "run": self.run_id,
            "name": name, "start": start, "end": end, "note": note,
        })
        return len(self.spans) - 1

    def query(self, name: str, fn, *args, check=None, note=None, answer=None, **kwargs):
        """Run one checked query; a raise or a failed check counts as failed.

        ``check(result)`` returns True for a correct answer, ``note(result)``
        labels the span (say, "absent" or "present"), and ``answer(result)``
        gives the JSON value that goes into the answer digest.
        """
        self.attempted += 1
        if time.perf_counter() - self._calibrated_at >= CALIBRATE_EVERY_S:
            self.calibration.append(calibrate())
            self._calibrated_at = time.perf_counter()
        self._calibration_index.append(len(self.calibration) - 1)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as err:  # a failing query must not stop the run
            end = time.perf_counter()
            self.latencies.append(end - start)
            self.fail(name, f"{type(err).__name__}: {err}")
            if self.spans is not None:
                self._add(name, start, end, "error")
            return None
        end = time.perf_counter()
        self.latencies.append(end - start)
        if self.spans is not None:
            self._add(name, start, end, note(result) if note else None)
        try:
            if answer is not None:
                self.answers.append([name, answer(result)])
            if not (check is None or check(result)):
                self.fail(name, "wrong answer")
        except Exception as err:
            self.fail(name, f"check raised {type(err).__name__}: {err}")
        return result

    def span(self, name: str, fn, *args, **kwargs):
        """Time a call that is part of a check, not a query of its own."""
        if self.spans is None:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._add(name, start, time.perf_counter(), None)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def fail(self, name: str, why: str) -> None:
        """Count one failed query and keep the first reasons for the report."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {why}")

    @property
    def slowdown(self) -> float:
        """How much slower than nominal the host ran during this pass."""
        return statistics.median(self.calibration) / CALIBRATION_NOMINAL_S

    def scaled_latencies(self) -> list[float]:
        """Latencies at nominal host speed.

        Each is divided by the median of the CALIBRATION_WINDOW samples
        around it over CALIBRATION_NOMINAL_S, so a change of host speed
        within the pass is followed.
        """
        half = CALIBRATION_WINDOW // 2
        out = []
        for latency, j in zip(self.latencies, self._calibration_index):
            near = self.calibration[max(0, j - half): j + half + 1]
            out.append(latency * CALIBRATION_NOMINAL_S / statistics.median(near))
        return out


def layer_table(spans) -> dict[str, dict]:
    """Per span name: call count, summed duration and summed self time."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += self_time(s["start"], s["end"], children.get(s["id"], ()))
    return table
