"""Tests for the ablation-matrix benchmark harness (``benchmarks/matrix.py``).

The matrix is a script, not a package module, so it is loaded via importlib.

Covers:

* micro end-to-end runs of one cell per in-process runner kind (histogram /
  delete / service / metrics / store read / merged accuracy) at tiny sizes;
* schema and fingerprint stamping of the emitted report;
* the regression gate: pass on identical data, **exit non-zero with the
  offending cell named in the delta table on an injected 2x slowdown** (the
  PR's acceptance criterion), auto-skip with a visible notice on fingerprint
  mismatch and on smoke-flag mismatch;
* derived rows: their wiring, their outcomes, a missed gated row failing
  the gate and a missed report-only row passing it;
* the checks cells make: ``merged_accuracy`` raises past its bound;
* the delta-table formatter.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARKS = REPO_ROOT / "benchmarks"


@pytest.fixture(scope="module")
def matrix():
    spec = importlib.util.spec_from_file_location("matrix", BENCHMARKS / "matrix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Tiny sizes: the tests exercise the cell plumbing, not the numbers.
MICRO_SIZES = {
    "hist_values": 2_000,
    "delete_values": 2_000,
    "delete_buckets": 16,
    "service_values": 600,
    "catalog_chunk": 16,
    "hot_chunk": 32,
    "read_duration_s": 0.2,
    "read_write_chunk": 200,
    "repeats": 1,
}

#: One representative cell per in-process runner kind (``merged_accuracy``
#: runs at its own fixed size).
MICRO_CELLS = [
    "hist_dc",
    "delete_per_value_dado",
    "wal_on",
    "metrics_on",
    "read_published_single",
    "merged_accuracy",
]


@pytest.fixture(scope="module")
def micro_report(matrix):
    return matrix.run_matrix(smoke=True, cells=MICRO_CELLS, sizes=MICRO_SIZES)


class TestMatrixCells:
    def test_every_runner_kind_produces_a_cell(self, matrix, micro_report):
        cells = micro_report["cells"]
        assert set(cells) == set(MICRO_CELLS)
        kinds = {matrix.CELLS[name]["kind"] for name in cells}
        assert kinds == set(matrix.RUNNERS) - {"cluster_spawned"}
        for name, cell in cells.items():
            assert cell["ops_per_sec"] > 0, name
            assert "latency_p99_s" in cell, name
            assert cell["wall_s"] > 0, name

    def test_report_is_schema_versioned_and_fingerprinted(self, matrix, micro_report):
        assert micro_report["schema_version"] == matrix.SCHEMA_VERSION
        fingerprint = micro_report["fingerprint"]
        assert set(fingerprint) == {"python", "numpy", "cpu_count"}
        assert micro_report["fingerprint_id"] == matrix.fingerprint_id(fingerprint)
        json.dumps(micro_report)  # must be JSON-serialisable as-is

    def test_cell_detail_records_its_knob(self, matrix, micro_report):
        cells = micro_report["cells"]
        assert cells["wal_on"]["detail"]["wal"] == "on"
        assert cells["read_published_single"]["detail"]["read_path"] == "published"
        assert cells["delete_per_value_dado"]["detail"]["batched"] is False
        assert cells["metrics_on"]["detail"]["metrics"] is True

    def test_checking_cells_record_what_they_checked(self, micro_report):
        cells = micro_report["cells"]
        assert cells["metrics_on"]["detail"]["accuracy_checks"] > 0
        merged = cells["merged_accuracy"]["detail"]
        assert (merged["values"], merged["windows"]) == (80_000, 50)
        assert 0 < merged["max_error_vs_unsharded"] <= 0.02

    def test_profile_flag_embeds_attribution(self, matrix):
        report = matrix.run_matrix(
            smoke=True, profile=True, cells=["hist_dc"], sizes=MICRO_SIZES
        )
        profile = report["cells"]["hist_dc"]["profile"]
        assert profile["samples"] >= 0
        assert "hot_stacks" in profile

    def test_unknown_cell_is_rejected(self, matrix):
        with pytest.raises(SystemExit):
            matrix.run_matrix(smoke=True, cells=["no_such_cell"], sizes=MICRO_SIZES)

    def test_derived_ratios_reference_real_cells(self, matrix):
        # Every derived row names two real cells and a positive expectation.
        for name, row in matrix.ROWS.items():
            numerator, denominator = row["cells"]
            assert numerator in matrix.CELLS, name
            assert denominator in matrix.CELLS, name
            assert row["at_least"] is None or row["at_least"] > 0, name

    def test_merged_accuracy_raises_past_its_bound(self, matrix, monkeypatch):
        # The cell's windows drift up to 0.0142 of the total; 0.01 is too tight.
        monkeypatch.setitem(matrix.CELLS["merged_accuracy"], "max_error", 0.01)
        with pytest.raises(AssertionError, match="merged estimates drifted"):
            matrix.run_cell("merged_accuracy", MICRO_SIZES)


def _report_with_rows(micro_report, rows):
    report = copy.deepcopy(micro_report)
    report["rows"] = rows
    return report


class TestRows:
    def test_outcomes_and_when_a_row_gates(self, matrix):
        cells = {
            "wal_on": {"ops_per_sec": 40.0},
            "wal_off": {"ops_per_sec": 100.0},
            "wal_fsync": {"ops_per_sec": 10.0},
            "spawned_shards_4": {"ops_per_sec": 200.0},
            "spawned_shards_1": {"ops_per_sec": 100.0},
        }
        rows = matrix.evaluate_rows(cells, smoke=False, cpu_count=4)
        # Rows need both of their cells.
        assert set(rows) == {
            "wal_overhead_on_vs_off",
            "fsync_overhead_vs_wal_on",
            "spawned_scaling_4_vs_1",
        }
        wal = rows["wal_overhead_on_vs_off"]
        assert (wal["value"], wal["expect"], wal["status"]) == (0.4, ">= 0.5", "missed")
        assert not wal["gated"]
        assert rows["fsync_overhead_vs_wal_on"]["status"] == "recorded"
        spawned = rows["spawned_scaling_4_vs_1"]
        assert (spawned["value"], spawned["status"], spawned["gated"]) == (2.0, "missed", True)
        for smoke, cpus in ((True, 4), (False, 3)):
            again = matrix.evaluate_rows(cells, smoke=smoke, cpu_count=cpus)
            assert not again["spawned_scaling_4_vs_1"]["gated"]

    def test_missed_gated_row_fails_the_gate(self, matrix, micro_report, tmp_path, capsys):
        rows = {
            "spawned_scaling_4_vs_1": {
                "cells": ["spawned_shards_4", "spawned_shards_1"],
                "value": 1.2,
                "expect": ">= 2.5",
                "status": "missed",
                "gated": True,
            }
        }
        report = _report_with_rows(micro_report, rows)
        assert matrix.run_gate(report, tmp_path) == 1
        err = capsys.readouterr().err
        assert "GATE FAILED" in err and "spawned_scaling_4_vs_1" in err

    def test_missed_report_only_row_is_printed_and_passes(
        self, matrix, micro_report, tmp_path, capsys
    ):
        rows = {
            "wal_overhead_on_vs_off": {
                "cells": ["wal_on", "wal_off"],
                "value": 0.4,
                "expect": ">= 0.5",
                "status": "missed",
                "gated": False,
            }
        }
        report = _report_with_rows(micro_report, rows)
        table = matrix.format_rows(report["rows"])
        line = next(line for line in table.splitlines() if "wal_overhead_on_vs_off" in line)
        assert "0.4" in line and ">= 0.5" in line and "missed" in line
        assert matrix.run_gate(report, tmp_path) == 0
        assert "GATE FAILED" not in capsys.readouterr().err


class TestGate:
    def test_identical_reports_pass(self, matrix, micro_report):
        rows, failures = matrix.gate_compare(micro_report, micro_report)
        assert failures == []
        assert all(row["status"] == "ok" for row in rows)

    def test_injected_2x_slowdown_fails_and_names_the_cell(
        self, matrix, micro_report
    ):
        """Acceptance criterion: halving one cell's throughput (a simulated
        2x slowdown) must fail the gate and name that cell in the table."""
        slowed = copy.deepcopy(micro_report)
        slowed["cells"]["wal_on"]["ops_per_sec"] = (
            micro_report["cells"]["wal_on"]["ops_per_sec"] / 2.0
        )
        rows, failures = matrix.gate_compare(slowed, micro_report)
        assert any("wal_on" in failure for failure in failures), failures
        table = matrix.format_delta_table(rows)
        failing_lines = [line for line in table.splitlines() if "FAIL" in line]
        assert any("wal_on" in line for line in failing_lines), table
        # Other cells stay green: the gate localises the regression.
        assert not any("hist_dc" in failure for failure in failures)

    def test_missing_cell_is_a_regression(self, matrix, micro_report):
        shrunk = copy.deepcopy(micro_report)
        del shrunk["cells"]["read_published_single"]
        _, failures = matrix.gate_compare(shrunk, micro_report)
        assert any(
            "read_published_single" in failure and "missing" in failure for failure in failures
        )

    def test_latency_blowup_fails(self, matrix, micro_report):
        slow = copy.deepcopy(micro_report)
        base_p99 = max(micro_report["cells"]["read_published_single"]["latency_p99_s"], 0.005)
        slow["cells"]["read_published_single"]["latency_p99_s"] = base_p99 * 10.0
        _, failures = matrix.gate_compare(slow, micro_report)
        assert any(
            "read_published_single" in failure and "latency_p99_s" in failure
            for failure in failures
        )

    def test_sub_floor_latencies_carry_no_signal(self, matrix, micro_report):
        """Latencies below the noise floor never fail the gate, whatever
        their ratio (0.001 -> 0.004 is a 4x blowup of nothing)."""
        current = copy.deepcopy(micro_report)
        baseline = copy.deepcopy(micro_report)
        baseline["cells"]["hist_dc"]["latency_p99_s"] = 0.0005
        current["cells"]["hist_dc"]["latency_p99_s"] = 0.004
        _, failures = matrix.gate_compare(current, baseline)
        assert not any("hist_dc" in failure for failure in failures)

    def test_run_gate_exit_codes(self, matrix, micro_report, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        baseline_dir.mkdir()
        path = baseline_dir / f"{micro_report['fingerprint_id']}.json"
        path.write_text(json.dumps(micro_report), encoding="utf-8")
        assert matrix.run_gate(micro_report, baseline_dir) == 0
        slowed = copy.deepcopy(micro_report)
        slowed["cells"]["hist_dc"]["ops_per_sec"] /= 2.0
        assert matrix.run_gate(slowed, baseline_dir) == 1
        err = capsys.readouterr().err
        assert "hist_dc" in err and "GATE FAILED" in err

    def test_gate_skips_visibly_on_fingerprint_mismatch(
        self, matrix, micro_report, tmp_path, capsys
    ):
        foreign = copy.deepcopy(micro_report)
        foreign["fingerprint_id"] = "py0.0.0-np0.0.0-cpu999"
        assert matrix.run_gate(foreign, tmp_path) == 0
        assert "GATE SKIPPED" in capsys.readouterr().err

    def test_gate_skips_on_smoke_mismatch(
        self, matrix, micro_report, tmp_path, capsys
    ):
        baseline = copy.deepcopy(micro_report)
        baseline["smoke"] = False
        path = tmp_path / f"{micro_report['fingerprint_id']}.json"
        path.write_text(json.dumps(baseline), encoding="utf-8")
        assert matrix.run_gate(micro_report, tmp_path) == 0
        assert "smoke" in capsys.readouterr().err

    def test_gate_skips_on_schema_mismatch(
        self, matrix, micro_report, tmp_path, capsys
    ):
        baseline = copy.deepcopy(micro_report)
        baseline["schema_version"] = -1
        path = tmp_path / f"{micro_report['fingerprint_id']}.json"
        path.write_text(json.dumps(baseline), encoding="utf-8")
        assert matrix.run_gate(micro_report, tmp_path) == 0
        assert "GATE SKIPPED" in capsys.readouterr().err


class TestCommittedBaseline:
    def test_committed_baseline_matches_this_host_or_is_absent(self, matrix):
        """The committed baseline (when present for this fingerprint) must be
        schema-current and smoke-shaped -- i.e. actually usable by CI."""
        path = BENCHMARKS / "baselines" / f"{matrix.fingerprint_id()}.json"
        if not path.exists():
            pytest.skip("no committed baseline for this host fingerprint")
        baseline = json.loads(path.read_text(encoding="utf-8"))
        assert baseline["schema_version"] == matrix.SCHEMA_VERSION
        assert baseline["smoke"] is True
        assert set(baseline["cells"]) == set(matrix.CELLS)
