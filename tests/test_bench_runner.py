"""Tests for tools/bench_runner.py: condensing and schema validation.

The subprocess pytest run itself is exercised by CI's bench-smoke job;
here we pin the pure parts — folding a pytest-benchmark payload into the
repro-bench schema (including schema 4's parallel speedup section), and
the hand-rolled validator's acceptance and rejection behaviour.
"""

import json
import pathlib
import subprocess
import sys

from tools.bench_runner import (
    SCHEMA_NAME,
    baseline_delta,
    condense,
    delta_table,
    validate_report,
)

REPO = pathlib.Path(__file__).resolve().parent.parent


def raw_payload():
    return {
        "machine_info": {"python_version": "3.12"},
        "benchmarks": [
            {
                "name": "test_engine_counting[grid-100]",
                "fullname": "benchmarks/bench_scaling_counting.py::test_engine_counting[grid-100]",
                "group": None,
                "stats": {
                    "mean": 0.002,
                    "stddev": 0.0001,
                    "min": 0.0018,
                    "rounds": 5,
                },
                "extra_info": {
                    "family": "grid",
                    "metrics": {
                        "counters": {
                            "evaluator.holds.memo.hit": 30,
                            "evaluator.holds.memo.miss": 10,
                        },
                        "histograms": {},
                    },
                    "memo_hit_rate": 0.75,
                },
            }
        ],
    }


class TestCondense:
    def test_folds_into_schema(self):
        report = condense(raw_payload(), quick=True)
        assert report["schema"] == SCHEMA_NAME
        assert report["quick"] is True
        [bench] = report["benchmarks"]
        assert bench["name"] == "test_engine_counting[grid-100]"
        assert bench["module"] == "bench_scaling_counting"
        assert bench["mean_s"] == 0.002
        assert bench["rounds"] == 5
        assert bench["memo_hit_rate"] == 0.75
        assert bench["extra_info"] == {"family": "grid"}  # metrics lifted out
        totals = report["totals"]
        assert totals["benchmarks"] == 1
        assert totals["wall_s"] == 0.002 * 5
        assert totals["memo_hits"] == 30
        assert totals["memo_misses"] == 10
        assert totals["memo_hit_rate"] == 0.75

    def test_condensed_report_is_valid(self):
        assert validate_report(condense(raw_payload(), quick=False)) == []

    def test_empty_run_is_valid(self):
        report = condense({"benchmarks": []}, quick=True)
        assert validate_report(report) == []
        assert report["totals"]["memo_hit_rate"] is None


class TestValidator:
    def test_rejects_wrong_schema_tag(self):
        report = condense(raw_payload(), quick=True)
        report["schema"] = "something-else"
        assert any("schema" in p for p in validate_report(report))

    def test_rejects_negative_timings(self):
        report = condense(raw_payload(), quick=True)
        report["benchmarks"][0]["mean_s"] = -1
        assert any("mean_s" in p for p in validate_report(report))

    def test_rejects_out_of_range_hit_rate(self):
        report = condense(raw_payload(), quick=True)
        report["benchmarks"][0]["memo_hit_rate"] = 1.5
        assert any("memo_hit_rate" in p for p in validate_report(report))

    def test_rejects_inconsistent_totals(self):
        report = condense(raw_payload(), quick=True)
        report["totals"]["benchmarks"] = 7
        assert any("totals.benchmarks" in p for p in validate_report(report))

    def test_rejects_non_integer_counters(self):
        report = condense(raw_payload(), quick=True)
        report["benchmarks"][0]["metrics"]["counters"]["bad"] = "lots"
        assert any("counters" in p for p in validate_report(report))

    def test_rejects_non_dict(self):
        assert validate_report([]) != []


class TestCliValidate:
    def test_validate_subcommand(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text(json.dumps(condense(raw_payload(), quick=True)))
        completed = subprocess.run(
            [sys.executable, str(REPO / "tools" / "bench_runner.py"),
             "--validate", str(target)],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr
        assert "valid" in completed.stdout

    def test_validate_subcommand_rejects(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text(json.dumps({"schema": "nope"}))
        completed = subprocess.run(
            [sys.executable, str(REPO / "tools" / "bench_runner.py"),
             "--validate", str(target)],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 1
        assert "invalid" in completed.stderr


def plan_payload():
    """A payload whose metrics carry the plan layer's counters/histograms."""
    payload = raw_payload()
    metrics = payload["benchmarks"][0]["extra_info"]["metrics"]
    metrics["counters"]["plan.cache.hit"] = 9
    metrics["counters"]["plan.cache.miss"] = 1
    metrics["histograms"]["plan.compile.seconds"] = {
        "count": 1,
        "total": 0.004,
        "min": 0.004,
        "max": 0.004,
        "mean": 0.004,
    }
    return payload


class TestPlanCacheFields:
    def test_plan_fields_folded_from_metrics(self):
        report = condense(plan_payload(), quick=True)
        [bench] = report["benchmarks"]
        assert bench["plan_cache_hit_rate"] == 0.9
        assert bench["compile_s"] == 0.004
        totals = report["totals"]
        assert totals["plan_cache_hits"] == 9
        assert totals["plan_cache_misses"] == 1
        assert totals["plan_cache_hit_rate"] == 0.9
        assert totals["compile_s"] == 0.004
        assert totals["execute_s"] == totals["wall_s"] - 0.004

    def test_plan_fields_null_without_plan_metrics(self):
        report = condense(raw_payload(), quick=True)
        [bench] = report["benchmarks"]
        assert bench["plan_cache_hit_rate"] is None
        assert bench["compile_s"] is None
        assert report["totals"]["plan_cache_hit_rate"] is None
        assert report["totals"]["execute_s"] == report["totals"]["wall_s"]

    def test_plan_report_is_valid(self):
        assert validate_report(condense(plan_payload(), quick=True)) == []

    def test_validator_rejects_bad_plan_rate(self):
        report = condense(plan_payload(), quick=True)
        report["benchmarks"][0]["plan_cache_hit_rate"] = 2.0
        assert any("plan_cache_hit_rate" in p for p in validate_report(report))


class TestBaselineDelta:
    def test_matching_benchmarks_produce_rows_and_geomean(self):
        baseline = condense(raw_payload(), quick=True)
        report = condense(plan_payload(), quick=True)
        report["benchmarks"][0]["mean_s"] = 0.001  # 2x speedup vs 0.002
        delta = baseline_delta(report, baseline, "BENCH_pr2.json")
        assert delta["common"] == 1
        [row] = delta["rows"]
        assert row["base_mean_s"] == 0.002
        assert row["mean_s"] == 0.001
        assert abs(row["ratio"] - 0.5) < 1e-12
        assert abs(delta["speedup_geomean"] - 0.5) < 1e-12

    def test_disjoint_reports_share_nothing(self):
        baseline = condense({"benchmarks": []}, quick=True)
        delta = baseline_delta(
            condense(raw_payload(), quick=True), baseline, "old.json"
        )
        assert delta["common"] == 0
        assert delta["speedup_geomean"] is None

    def test_report_with_delta_is_valid(self):
        report = condense(plan_payload(), quick=True)
        report["baseline_delta"] = baseline_delta(
            report, condense(raw_payload(), quick=True), "BENCH_pr2.json"
        )
        assert validate_report(report) == []

    def test_delta_table_renders(self):
        report = condense(plan_payload(), quick=True)
        delta = baseline_delta(
            report, condense(raw_payload(), quick=True), "BENCH_pr2.json"
        )
        lines = delta_table(delta)
        assert "BENCH_pr2.json" in lines[0]
        assert any("bench_scaling_counting" in line for line in lines)


def parallel_payload():
    """A worker-sweep payload like benchmarks/bench_parallel.py emits."""
    payload = raw_payload()
    for workers, mean in ((1, 0.008), (2, 0.005), (4, 0.004)):
        payload["benchmarks"].append(
            {
                "name": f"test_per_cluster_workers[100-{workers}]",
                "fullname": "benchmarks/bench_parallel.py"
                f"::test_per_cluster_workers[100-{workers}]",
                "group": None,
                "stats": {
                    "mean": mean,
                    "stddev": 0.0001,
                    "min": mean,
                    "rounds": 3,
                },
                "extra_info": {
                    "parallel_group": "per_cluster/n=100",
                    "workers": workers,
                },
            }
        )
    return payload


class TestParallelSection:
    def test_speedups_relative_to_workers_one(self):
        report = condense(parallel_payload(), quick=True)
        parallel = report["parallel"]
        assert isinstance(parallel["cpu_count"], int)
        [group] = parallel["groups"]
        assert group["group"] == "per_cluster/n=100"
        rows = {row["workers"]: row for row in group["rows"]}
        assert rows[1]["speedup"] == 1.0
        assert abs(rows[2]["speedup"] - 1.6) < 1e-12
        assert abs(rows[4]["speedup"] - 2.0) < 1e-12

    def test_untagged_benchmarks_stay_out(self):
        report = condense(raw_payload(), quick=True)
        assert report["parallel"]["groups"] == []

    def test_parallel_report_is_valid(self):
        assert validate_report(condense(parallel_payload(), quick=True)) == []

    def test_validator_rejects_bad_workers(self):
        report = condense(parallel_payload(), quick=True)
        report["parallel"]["groups"][0]["rows"][0]["workers"] = 0
        assert any("workers" in p for p in validate_report(report))

    def test_validator_requires_parallel_section(self):
        report = condense(parallel_payload(), quick=True)
        del report["parallel"]
        assert any("parallel" in p for p in validate_report(report))

    def test_table_renders(self):
        from tools.bench_runner import parallel_table

        report = condense(parallel_payload(), quick=True)
        lines = parallel_table(report["parallel"])
        assert "cpu_count" in lines[0]
        assert any("per_cluster/n=100" in line for line in lines)
        empty = parallel_table({"cpu_count": 1, "groups": []})
        assert any("no worker-sweep" in line for line in empty)


def retry_payload():
    """A retry-sweep payload like benchmarks/bench_retry.py emits."""
    payload = raw_payload()
    for retries, mean in ((0, 0.010), (2, 0.0102)):
        payload["benchmarks"].append(
            {
                "name": f"test_per_cluster_retry_overhead[100-{retries}]",
                "fullname": "benchmarks/bench_retry.py"
                f"::test_per_cluster_retry_overhead[100-{retries}]",
                "group": None,
                "stats": {
                    "mean": mean,
                    "stddev": 0.0001,
                    "min": mean,
                    "rounds": 3,
                },
                "extra_info": {
                    "retry_group": "per_cluster/n=100",
                    "retries": retries,
                },
            }
        )
    return payload


class TestRetrySection:
    def test_overhead_relative_to_retries_zero(self):
        report = condense(retry_payload(), quick=True)
        [group] = report["retry_overhead"]["groups"]
        assert group["group"] == "per_cluster/n=100"
        rows = {row["retries"]: row for row in group["rows"]}
        assert rows[0]["overhead"] is None  # the denominator itself
        assert abs(rows[2]["overhead"] - 1.02) < 1e-12

    def test_untagged_benchmarks_stay_out(self):
        report = condense(raw_payload(), quick=True)
        assert report["retry_overhead"]["groups"] == []

    def test_retry_report_is_valid(self):
        assert validate_report(condense(retry_payload(), quick=True)) == []

    def test_validator_rejects_negative_retries(self):
        report = condense(retry_payload(), quick=True)
        report["retry_overhead"]["groups"][0]["rows"][0]["retries"] = -1
        assert any("retries" in p for p in validate_report(report))

    def test_validator_requires_retry_section(self):
        report = condense(retry_payload(), quick=True)
        del report["retry_overhead"]
        assert any("retry_overhead" in p for p in validate_report(report))

    def test_table_renders(self):
        from tools.bench_runner import retry_table

        report = condense(retry_payload(), quick=True)
        lines = retry_table(report["retry_overhead"])
        assert "target < 1.05x" in lines[0]
        assert any("per_cluster/n=100" in line for line in lines)
        empty = retry_table({"groups": []})
        assert any("no retry-sweep" in line for line in empty)


def approx_payload(relative_error=0.03):
    """An exact-vs-approx payload like benchmarks/bench_approx.py emits."""
    payload = raw_payload()
    for mode, mean in (("exact", 0.020), ("approx", 0.008)):
        extra = {"approx_group": "dense/n=40", "engine_mode": mode}
        if mode == "approx":
            extra["relative_error"] = relative_error
            extra["epsilon"] = 0.1
            extra["samples"] = 1500
        payload["benchmarks"].append(
            {
                "name": f"test_approx_vs_exact_dense[40-{mode}]",
                "fullname": "benchmarks/bench_approx.py"
                f"::test_approx_vs_exact_dense[40-{mode}]",
                "group": None,
                "stats": {
                    "mean": mean,
                    "stddev": 0.0001,
                    "min": mean,
                    "rounds": 3,
                },
                "extra_info": extra,
            }
        )
    return payload


class TestApproxSection:
    def test_approx_vs_exact_ratio_and_error_passthrough(self):
        report = condense(approx_payload(), quick=True)
        approx = report["approx"]
        [group] = approx["groups"]
        assert group["group"] == "dense/n=40"
        rows = {row["mode"]: row for row in group["rows"]}
        assert rows["exact"]["vs_exact"] is None
        assert abs(rows["approx"]["vs_exact"] - 0.4) < 1e-12
        assert rows["approx"]["relative_error"] == 0.03
        assert rows["approx"]["epsilon"] == 0.1
        assert rows["approx"]["samples"] == 1500
        assert approx["max_relative_error"] == 0.03
        assert approx["within_epsilon"] is True

    def test_error_above_epsilon_flips_the_flag(self):
        approx = condense(approx_payload(relative_error=0.2), quick=True)[
            "approx"
        ]
        assert approx["max_relative_error"] == 0.2
        assert approx["within_epsilon"] is False

    def test_untagged_benchmarks_stay_out(self):
        report = condense(raw_payload(), quick=True)
        assert report["approx"]["groups"] == []
        assert report["approx"]["max_relative_error"] is None
        assert report["approx"]["within_epsilon"] is True  # vacuously

    def test_approx_report_is_valid(self):
        assert validate_report(condense(approx_payload(), quick=True)) == []

    def test_validator_rejects_bad_mode(self):
        report = condense(approx_payload(), quick=True)
        report["approx"]["groups"][0]["rows"][0]["mode"] = "guessed"
        assert any("mode" in p for p in validate_report(report))

    def test_validator_rejects_negative_error(self):
        report = condense(approx_payload(), quick=True)
        report["approx"]["groups"][0]["rows"][1]["relative_error"] = -0.1
        assert any("relative_error" in p for p in validate_report(report))

    def test_validator_requires_approx_section(self):
        report = condense(approx_payload(), quick=True)
        del report["approx"]
        assert any("approx" in p for p in validate_report(report))

    def test_table_renders(self):
        from tools.bench_runner import approx_table

        report = condense(approx_payload(), quick=True)
        lines = approx_table(report["approx"])
        assert any("dense/n=40" in line for line in lines)
        assert any("max relative error" in line for line in lines)
        empty = approx_table({"groups": []})
        assert any("no sampling-tier" in line for line in empty)
