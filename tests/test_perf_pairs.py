"""Tests for the pair protocol's verdicts (``benchmarks/perf_pairs.py``).

The script is loaded via importlib, as ``test_matrix.py`` loads the matrix;
every test feeds made-up run lists to the pure functions, so nothing here
exports a tree or starts a benchmark.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "perf_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [346.0, 351.0, 352.0, 360.0, 362.0, 365.0, 368.0, 371.0, 372.0, 374.0]


class TestClaimedMetric:
    def test_improved_when_nine_of_ten_win_past_the_iqr(self, pairs):
        change = [480.0] * 9 + [340.0]
        assert pairs.wins(PARENT, change, "higher") == 9
        assert pairs.verdict(PARENT, change, better="higher", bound=0.24, claimed=True) == "improved"

    def test_not_met_with_eight_wins(self, pairs):
        change = [480.0] * 8 + [340.0, 340.0]
        assert pairs.verdict(PARENT, change, better="higher", bound=0.24, claimed=True) == "not met"

    def test_not_met_when_the_gap_is_inside_the_parent_iqr(self, pairs):
        # Every pair won, by a median gap smaller than the parent's spread.
        change = [value + 1.0 for value in PARENT]
        q1, _, q3 = pairs.quartiles(PARENT)
        assert q3 - q1 > 1.0
        assert pairs.verdict(PARENT, change, better="higher", bound=0.24, claimed=True) == "not met"

    def test_lower_is_better(self, pairs):
        parent = [3.6, 3.7, 3.5, 3.64, 3.62, 3.6, 3.66, 3.7, 3.55, 3.61]
        change = [2.4] * 10
        assert pairs.verdict(parent, change, better="lower", bound=0.24, claimed=True) == "improved"

    def test_ties_count_for_neither_side(self, pairs):
        assert pairs.wins([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], "higher") == 1
        assert pairs.wins([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], "lower") == 1


class TestOtherMetrics:
    def test_within_the_bound(self, pairs):
        change = [value * 0.9 for value in PARENT]  # 10% lower, bound 24%
        assert pairs.verdict(PARENT, change, better="higher", bound=0.24) == "within"

    def test_worse_past_the_bound(self, pairs):
        change = [value * 0.7 for value in PARENT]
        assert pairs.verdict(PARENT, change, better="higher", bound=0.24) == "worse"
        latency = [20.0, 21.0, 20.5, 20.2, 20.8]
        slower = [value * 1.3 for value in latency]
        assert pairs.verdict(latency, slower, better="lower", bound=0.24) == "worse"

    def test_unresolved_when_the_parent_spreads_past_the_bound(self, pairs):
        parent = [10.0, 16.0, 11.0, 15.0, 12.0, 14.0]
        change = [11.0, 15.0, 12.0, 16.0, 10.5, 13.0]
        q1, median, q3 = pairs.quartiles(parent)
        assert (q3 - q1) / median > 0.24
        assert pairs.verdict(parent, change, better="higher", bound=0.24) == "unresolved"

    def test_wide_spread_resolves_when_every_change_run_beats_every_parent_run(self, pairs):
        parent = [10.0, 16.0, 11.0, 15.0, 12.0, 14.0]
        change = [17.0, 18.0, 19.0, 17.5, 18.5, 20.0]
        assert pairs.verdict(parent, change, better="higher", bound=0.24) == "within"

    def test_zero_median_metric(self, pairs):
        assert pairs.verdict([0.0, 0.0], [0.0, 0.0], better="lower", bound=0.05) == "within"
        assert pairs.verdict([0.0, 0.0], [0.0, 0.1], better="lower", bound=0.05) == "worse"


def test_report_prints_every_metric_and_the_failures(pairs):
    def run(estimate, p50, failed):
        return {
            "failed": failed,
            "attempted": 100,
            "metrics": {"estimate_per_s": {"value": estimate}, "estimate_p50_ms": {"value": p50}},
        }

    runs = {
        "parent": [run(360.0 + i, 3.6, 0) for i in range(10)],
        "change": [run(480.0 + i, 2.4, 1) for i in range(10)],
    }
    end_to_end = [
        {"name": "estimate_per_s", "better": "higher", "bound": 0.24},
        {"name": "estimate_p50_ms", "better": "lower", "bound": 0.24},
        {"name": "rss_mb", "better": "lower", "bound": 0.1},
    ]
    lines = pairs.report(runs, end_to_end, "estimate_per_s")
    assert "improved (claimed)" in lines[1] and " 10/10" in lines[1]
    assert lines[2].startswith("estimate_p50_ms") and lines[2].endswith("within")
    assert "not measured" in lines[3]
    assert lines[-2:] == [
        "failed operations, parent: 0 of 1000",
        "failed operations, change: 10 of 1000",
    ]
