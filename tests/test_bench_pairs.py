"""tools/bench_pairs.py's statistics on fixed numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_medians_and_inclusive_quartiles():
    # inclusive quartiles interpolate between the order statistics at
    # (n - 1) k / 4: for 1..5 they are 2 and 4, for 1..6 2.25 and 4.75
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([6.0, 1.0, 5.0, 2.0, 4.0, 3.0]) == (2.25, 3.5, 4.75)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_lower_metric_counts_wins_without_ties_and_checks_its_bound():
    parent = [10.0, 10.0, 12.0, 11.0, 13.0]
    change = [9.0, 10.0, 13.0, 10.0, 12.0]            # wins pairs 1, 4, 5; pair 2 ties
    entry = bench_pairs.compare(parent, change, "lower", 0.25)
    assert entry["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert entry["change"] == {"median": 10.0, "q1": 10.0, "q3": 12.0}
    assert entry["change_better_pairs"] == 3
    assert entry["ratio"] == pytest.approx(10.0 / 11.0)
    assert entry["worse_by"] == pytest.approx(-1.0 / 11.0)
    assert entry["within_bound"] and not entry["median_gap_exceeds_parent_iqr"]
    assert entry["parent_runs"] == parent and entry["change_runs"] == change
    slower = bench_pairs.compare(parent, [14.0] * 5, "lower", 0.25)
    assert slower["worse_by"] == pytest.approx(3.0 / 11.0) and not slower["within_bound"]
    assert slower["median_gap_exceeds_parent_iqr"] and slower["change_better_pairs"] == 0


def test_a_higher_metric_is_worse_when_it_falls():
    parent = [1.0, 1.0, 1.0, 1.0]
    entry = bench_pairs.compare(parent, [1.0, 0.95, 1.0, 0.95], "higher", 0.1)
    assert entry["change"]["median"] == pytest.approx(0.975) and entry["change_better_pairs"] == 0
    assert entry["worse_by"] == pytest.approx(0.025) and entry["within_bound"]
    assert entry["median_gap_exceeds_parent_iqr"]      # the parent's IQR is 0
    low = bench_pairs.compare(parent, [0.8, 0.85, 0.9, 0.8], "higher", 0.1)
    assert low["worse_by"] == pytest.approx(0.175) and not low["within_bound"]
    more = bench_pairs.compare(parent, [1.0, 1.2, 1.0, 1.1], "higher", 0.1)
    assert more["change_better_pairs"] == 2 and more["worse_by"] == pytest.approx(-0.05)


def test_a_workload_section_from_fixed_runs():
    def run(value, correct=True, loadavg=1.0):
        return {"loadavg": loadavg, "result": {
            "correct": correct, "attempted": 8, "failed": int(not correct),
            "metrics": {"table_ref_s": {"value": value, "unit": "ref_s"}}}}

    pairs = [{"seed": 1, "first": "parent", "parent": run(2.0), "change": run(1.0, loadavg=0.5)},
             {"seed": 2, "first": "change", "parent": run(3.0), "change": run(4.0, False)}]
    end_to_end = [{"name": "table_ref_s", "unit": "ref_s", "better": "lower", "bound": 0.25}]
    sec = bench_pairs.section(pairs, end_to_end)
    assert (sec["pairs"], sec["seeds"], sec["first_in_pair"]) == (2, [1, 2], ["parent", "change"])
    assert sec["loadavg_1min"] == {"parent": [1.0, 1.0], "change": [0.5, 1.0]}
    assert sec["failed"] == {"parent": [0, 0], "change": [0, 1]} and not sec["all_correct"]
    assert sec["attempted"] == {"parent": [8, 8], "change": [8, 8]}
    metric = sec["metrics"]["table_ref_s"]
    assert metric["parent"]["median"] == metric["change"]["median"] == 2.5
    assert metric["change_better_pairs"] == 1 and metric["within_bound"]
