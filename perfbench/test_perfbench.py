"""Self-tests of the benchmark's own arithmetic and answer checks.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import pytest

import checks
import spans


def test_p90_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert spans.percentile(values, 90) == 90  # 91..100 lie beyond it
    with pytest.raises(ValueError, match="9 beyond"):
        spans.percentile(values[:99], 90)


def test_p50_needs_ten_samples_beyond():
    assert spans.percentile([5, 1, 4, 2, 3] * 4, 50) == 3
    with pytest.raises(ValueError):
        spans.percentile(list(range(19)), 50)


def test_percentile_is_nearest_rank_on_unsorted_input():
    values = [float(v) for v in reversed(range(200))]
    assert spans.percentile(values, 50) == 99.0
    assert spans.percentile(values, 90) == 179.0


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        spans.percentile(range(1000), 100)


def test_self_time_without_children_is_duration():
    assert spans.self_time(1.0, 4.0, []) == 3.0


def test_self_time_subtracts_disjoint_children():
    assert spans.self_time(0.0, 10.0, [(6.0, 7.0), (1.0, 3.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlap_once_and_clips_to_parent():
    children = [(1.0, 4.0), (2.0, 5.0), (9.0, 12.0), (-3.0, 0.5)]
    # covered: [0, 0.5] + [1, 5] + [9, 10] = 5.5
    assert spans.self_time(0.0, 10.0, children) == pytest.approx(4.5)


def test_self_time_of_nested_children_counts_the_outer_one():
    assert spans.self_time(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(4.0)


def test_layer_table_sums_calls_total_and_self():
    rows = [
        {"id": 0, "parent": None, "name": "pass", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "a", "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "name": "a", "start": 4.0, "end": 5.0},
        {"id": 3, "parent": 0, "name": "b", "start": 6.0, "end": 9.0},
    ]
    table = spans.layer_table(rows)
    assert table["a"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert table["pass"]["self_s"] == pytest.approx(4.0)


def test_recorder_counts_raises_and_wrong_answers_as_failed():
    rec = spans.Recorder("t", traced=True)
    rec.begin("pass")
    assert rec.query("x.ok", lambda: 2, check=lambda r: r == 2) == 2
    rec.query("x.wrong", lambda: 3, check=lambda r: r == 2)
    rec.query("x.raises", lambda: 1 / 0)
    rec.end()
    assert (rec.attempted, rec.failed, len(rec.latencies)) == (3, 2, 3)
    assert [s["parent"] for s in rec.spans] == [None, 0, 0, 0]


def test_lift_edges_follow_the_rule():
    # path 0-1, 0-2 with 1-2 absent: only {0, 1, 2} with apex 0
    assert checks.lift_edges([(0, 1), (0, 2)], 3, 3) == {(0, 1, 2)}
    assert checks.lift_edges([(0, 1), (0, 2), (1, 2)], 3, 3) == set()


def test_tight_cycle_check():
    s = 7
    edges = {tuple(sorted((i, (i + 1) % s, (i + 2) % s))) for i in range(s)}
    assert checks.is_tight_cycle(edges, 3, tuple(range(s)), s)
    assert not checks.is_tight_cycle(edges, 3, (0, 1, 2, 3, 4, 6, 5), s)
    assert not checks.is_tight_cycle(edges, 3, (0, 1, 2, 3, 4, 5, 5), s)


def test_antichain_check():
    down = [0b001, 0b011, 0b100]  # 0 < 1, 2 apart
    assert checks.antichain_ok(down, (1, 2), 2)
    assert not checks.antichain_ok(down, (0, 1), 2)
    assert checks.strict_pairs(down) == 1


def test_packing_check():
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    assert checks.packing_ok(fano, 7)
    assert not checks.packing_ok(fano + [(0, 1, 3)], 7)
    assert not checks.packing_ok(fano[:6], 7)  # below t^2/7


def test_metric_names_and_units_match_benchmark_json():
    import json
    import os

    import run
    import worker

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    produced = set(worker.layer_metrics([], {})) | {
        "construction.alpha_threads_ratio", "trace.overhead_frac"}
    assert {m["name"] for m in bench["per_layer"]} == produced
    for m in bench["per_layer"]:
        assert run.per_layer_unit(m["name"]) == m["unit"], m["name"]


def test_scaled_latencies_follow_the_nearby_calibration():
    rec = spans.Recorder("t", traced=False)
    nominal = spans.CALIBRATION_NOMINAL_S
    # a host at half speed for the first queries, then at nominal speed
    rec.calibration = [2 * nominal] * 10 + [nominal] * 10
    rec._calibration_index = [0, 19]
    rec.latencies = [0.4, 0.3]
    assert rec.scaled_latencies() == pytest.approx([0.2, 0.3])
    assert rec.slowdown == pytest.approx(1.5)
