"""Tests for the benchmark summariser tool."""

import json
import pathlib
import subprocess
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def make_report(tmp_path):
    data = {
        "benchmarks": [
            {
                "fullname": "benchmarks/bench_covers.py::test_sparse_cover[grid-100]",
                "stats": {"mean": 0.00042},
                "extra_info": {"order": 100, "max_degree": 9},
            },
            {
                "fullname": "benchmarks/bench_covers.py::test_sparse_cover[grid-400]",
                "stats": {"mean": 0.0021},
                "extra_info": {"order": 400, "max_degree": 10},
            },
            {
                "fullname": "benchmarks/bench_splitter.py::test_rounds[64]",
                "stats": {"mean": 1.4},
                "extra_info": {"rounds": 4},
            },
        ]
    }
    target = tmp_path / "bench.json"
    target.write_text(json.dumps(data))
    return target


class TestSummarizer:
    def test_produces_grouped_tables(self, tmp_path):
        from tools.summarize_benchmarks import summarise

        data = json.loads(make_report(tmp_path).read_text())
        text = summarise(data)
        assert "## covers" in text and "## splitter" in text
        assert "max_degree" in text and "rounds" in text
        assert "1.40 s" in text  # second formatting
        assert "us" in text or "ms" in text

    def test_cli_invocation(self, tmp_path):
        report = make_report(tmp_path)
        result = subprocess.run(
            [sys.executable, str(TOOLS / "summarize_benchmarks.py"), str(report)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "## covers" in result.stdout

    def test_missing_file(self):
        result = subprocess.run(
            [sys.executable, str(TOOLS / "summarize_benchmarks.py"), "/none.json"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2


class TestLoadRunnerGate:
    """tools/load_runner.py acceptance gate on synthetic reports."""

    @staticmethod
    def report(**overrides):
        totals = {
            "offered": 72,
            "admitted": 72,
            "completed": 72,
            "shed": 0,
            "killed": 0,
            "errors": 0,
            "mismatches": 0,
            "degraded": 0,
            "resumes": 10,
            "answers_ok": True,
        }
        totals.update(overrides)
        return {
            "schema": "repro-load/1",
            "scenarios": [
                {
                    "mix": "uniform",
                    "offered": 72,
                    "shed_rate": totals["shed"] / 72,
                    "orphaned_checkpoints": overrides.get("orphaned", 0),
                    "degrade_saturation": None,
                    "degraded": 0,
                }
            ],
            "totals": totals,
        }

    def test_clean_report_passes(self):
        from tools.load_runner import gate

        assert gate(self.report(), shed_bounds=(0.0, 0.5)) == []

    def test_killed_query_fails_the_gate(self):
        from tools.load_runner import gate

        problems = gate(self.report(killed=1), shed_bounds=(0.0, 0.5))
        assert any("killed" in p for p in problems)

    def test_wrong_answers_fail_the_gate(self):
        from tools.load_runner import gate

        problems = gate(
            self.report(answers_ok=False, mismatches=2),
            shed_bounds=(0.0, 0.5),
        )
        assert problems

    def test_shed_rate_outside_bounds_fails(self):
        from tools.load_runner import gate

        clean = self.report()
        clean["scenarios"][0]["shed_rate"] = 0.9
        problems = gate(clean, shed_bounds=(0.0, 0.5))
        assert any("shed" in p for p in problems)

    def test_degrading_scenario_that_degrades_nothing_fails(self):
        from tools.load_runner import gate

        report = self.report()
        hot = {
            "mix": "hot",
            "offered": 24,
            "shed_rate": 0.0,
            "orphaned_checkpoints": 0,
            "degrade_saturation": 2.0,
            "degraded": 0,
        }
        report["scenarios"].append(hot)
        problems = gate(report, shed_bounds=(0.0, 0.5))
        assert any(p.startswith("hot:") and "degraded" in p for p in problems)
        hot["degraded"] = 22
        assert gate(report, shed_bounds=(0.0, 0.5)) == []


class TestSeededRngChecker:
    """tools/check_seeded_rng.py — the determinism lint (ISSUE 9)."""

    def test_library_tree_is_clean(self):
        result = subprocess.run(
            [sys.executable, str(TOOLS / "check_seeded_rng.py")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr

    def test_flags_module_level_draws(self, tmp_path):
        from tools.check_seeded_rng import check_source

        bad = (
            "import random\n"
            "import random as rnd\n"
            "from random import randint\n"
            "x = random.random()\n"
            "random.shuffle([1, 2])\n"
            "y = rnd.choice([1, 2])\n"
            "random.seed(0)\n"
        )
        problems = check_source(bad, "bad.py")
        lines = [line for line, _ in problems]
        assert lines == [3, 4, 5, 6, 7]
        assert all("random.Random" in message for _, message in problems)

    def test_allows_seeded_instances(self):
        from tools.check_seeded_rng import check_source

        good = (
            "import random\n"
            "from random import Random\n"
            "rng = random.Random(7)\n"
            "value = rng.random() + Random(9).randint(0, 3)\n"
            "class Crashy(random.Random):\n"
            "    pass\n"
        )
        assert check_source(good, "good.py") == []

    def test_cli_rejects_a_bad_file(self, tmp_path):
        bad = tmp_path / "module.py"
        bad.write_text("import random\nrandom.random()\n")
        result = subprocess.run(
            [sys.executable, str(TOOLS / "check_seeded_rng.py"), str(bad)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1
        assert "module.py:2" in result.stderr
        assert "unseeded-RNG" in result.stderr
