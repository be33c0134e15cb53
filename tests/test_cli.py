"""Tests for structure I/O and the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.io import (
    FormatError,
    load_structure,
    parse_edge_list,
    save_structure,
    structure_from_json,
)
from repro.structures.builders import graph_structure


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        structure = graph_structure([1, 2, 3], [(1, 2), (2, 3)])
        target = tmp_path / "g.json"
        save_structure(structure, target)
        assert load_structure(target) == structure

    def test_round_trip_with_colours(self, tmp_path):
        from repro.structures.builders import coloured_graph_structure

        structure = coloured_graph_structure(
            ["a", "b"], [("a", "b")], red=["a"], blue=["b"]
        )
        target = tmp_path / "g.json"
        save_structure(structure, target)
        assert load_structure(target) == structure

    def test_missing_keys_rejected(self):
        with pytest.raises(FormatError):
            structure_from_json({"universe": [1]})

    def test_bad_signature_rejected(self):
        with pytest.raises(FormatError):
            structure_from_json(
                {"signature": {"E": "two"}, "universe": [1], "relations": {}}
            )

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(FormatError):
            load_structure(bad)


class TestCorruptJson:
    """Loader hardening: corrupt documents fail with a position hint."""

    @staticmethod
    def doc(universe, relations):
        return {"signature": {"E": 2}, "universe": universe, "relations": relations}

    def test_duplicate_universe_element(self):
        with pytest.raises(FormatError, match=r"universe\[2\]: duplicate element 1"):
            structure_from_json(self.doc([1, 2, 1], {"E": []}))

    def test_non_scalar_universe_element(self):
        with pytest.raises(FormatError, match=r"universe\[1\].*JSON scalars"):
            structure_from_json(self.doc([1, [2]], {"E": []}))

    def test_universe_not_a_list(self):
        with pytest.raises(FormatError, match="'universe'"):
            structure_from_json(self.doc("abc", {"E": []}))

    def test_unknown_element_in_tuple(self):
        with pytest.raises(
            FormatError, match=r"relations\['E'\]\[1\]: entry 1 is 9"
        ):
            structure_from_json(self.doc([1, 2], {"E": [[1, 2], [2, 9]]}))

    def test_wrong_arity_tuple(self):
        with pytest.raises(FormatError, match=r"relations\['E'\]\[0\].*arity 2"):
            structure_from_json(self.doc([1, 2], {"E": [[1, 2, 1]]}))

    def test_tuple_not_an_array(self):
        with pytest.raises(FormatError, match=r"relations\['E'\]\[0\]"):
            structure_from_json(self.doc([1, 2], {"E": ["12"]}))

    def test_undeclared_relation(self):
        with pytest.raises(FormatError, match=r"relations\['F'\]"):
            structure_from_json(self.doc([1, 2], {"F": [[1, 2]]}))

    def test_relations_not_a_dict(self):
        with pytest.raises(FormatError, match="'relations'"):
            structure_from_json(self.doc([1, 2], [[1, 2]]))

    def test_edge_list_line_number_in_error(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_edge_list("1 2\n2 3\n3 4 5\n")


class TestEdgeLists:
    def test_basic_graph(self):
        structure = parse_edge_list("1 2\n2 3\n# comment\n4\n")
        assert structure.order() == 4
        assert structure.has_tuple("E", (1, 2)) and structure.has_tuple("E", (2, 1))
        assert structure.has_tuple("E", (3, 2))

    def test_string_vertices(self):
        structure = parse_edge_list("ada bob\nbob cyd\n")
        assert "ada" in structure.universe

    def test_malformed_line_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("1 2 3\n")

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("# nothing\n")


def run_cli(*args, expect: int = 0) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == expect, result.stderr
    return result.stdout


class TestCli:
    @pytest.fixture
    def graph_file(self, tmp_path):
        target = tmp_path / "graph.txt"
        target.write_text("1 2\n2 3\n3 4\n4 1\n")
        return str(target)

    def test_check(self, graph_file):
        out = run_cli("check", graph_file, "forall x. @eq(#(y). E(x, y), 2)")
        assert out.strip() == "True"

    def test_count(self, graph_file):
        out = run_cli(
            "count", graph_file, "E(x, y) & E(y, z)", "--vars", "x", "y", "z"
        )
        assert out.strip() == "16"

    def test_term(self, graph_file):
        out = run_cli("term", graph_file, "#(x, y). E(x, y)")
        assert out.strip() == "8"

    def test_unary(self, graph_file):
        out = run_cli("unary", graph_file, "#(y). E(x, y)", "--var", "x")
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        assert lines == {"1": "2", "2": "2", "3": "2", "4": "2"}

    def test_info(self, graph_file):
        out = run_cli("info", graph_file)
        report = json.loads(out)
        assert report["order"] == 4
        assert report["degeneracy"] == 2

    def test_formula_analysis(self):
        out = run_cli("formula", "exists x. @even(#(y). E(x, y))")
        assert "is_foc1: True" in out

    def test_fragment_violation_reported(self, graph_file):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "check",
                graph_file,
                "exists x. exists y. @eq(#(z). E(x, z), #(z). E(y, z))",
            ],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 2
        assert "FOC1" in result.stderr

    def test_fragment_check_can_be_disabled(self, graph_file):
        out = run_cli(
            "check",
            graph_file,
            "exists x. exists y. @eq(#(z). E(x, z), #(z). E(y, z))",
            "--no-fragment-check",
        )
        assert out.strip() == "True"

    def test_parse_error_exit_code(self, graph_file):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "check", graph_file, "E(x,"],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 2

    def test_missing_file(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "info", "/nonexistent/file.txt"],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 2


class TestCliExplain:
    """`explain` renders a compiled plan without evaluating; exit codes
    follow the CLI contract (0 ok, 2 bad input)."""

    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "explain", *args],
            capture_output=True,
            text=True,
            timeout=240,
        )

    def test_sentence_plan_exits_0_with_stage_annotations(self):
        result = self._run("exists x. @even(#(y). E(x, y))")
        assert result.returncode == 0, result.stderr
        out = result.stdout
        assert "plan: model_check" in out
        assert "stratification (Theorem 6.10)" in out
        assert "count DAG (Lemma 6.4)" in out
        assert "Paux__0" in out
        assert "plan cache:" in out

    def test_counting_term_plan_exits_0(self):
        result = self._run("#(x, y). E(x, y)")
        assert result.returncode == 0, result.stderr
        assert "plan: ground_term" in result.stdout
        assert "guard" in result.stdout

    def test_parse_error_exits_2(self):
        result = self._run("E(x,")
        assert result.returncode == 2
        assert "error:" in result.stderr
        assert result.stdout == ""

    def test_fragment_violation_exits_2(self):
        result = self._run(
            "exists x. exists y. @eq(#(z). E(x, z), #(z). E(y, z))"
        )
        assert result.returncode == 2
        assert "FOC1" in result.stderr

    def test_fragment_check_can_be_disabled(self):
        result = self._run(
            "exists x. @even(#(y). E(x, y))", "--no-fragment-check"
        )
        assert result.returncode == 0, result.stderr


class TestCliRobustness:
    """Exit-code contract: 0 ok, 2 bad input, 3 internal bug, 4 budget."""

    @pytest.fixture
    def dense_file(self, tmp_path):
        # K12 as an edge list: enumeration-heavy queries blow up here.
        lines = [f"{u} {v}" for u in range(1, 13) for v in range(u + 1, 13)]
        target = tmp_path / "dense.txt"
        target.write_text("\n".join(lines) + "\n")
        return str(target)

    @pytest.fixture
    def graph_file(self, tmp_path):
        target = tmp_path / "graph.txt"
        target.write_text("1 2\n2 3\n3 4\n4 1\n")
        return str(target)

    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            timeout=240,
        )

    @pytest.mark.parametrize("engine", ["foc1", "robust", "baseline"])
    def test_budget_exhaustion_exits_4(self, dense_file, engine):
        result = self._run(
            "count",
            dense_file,
            "E(x, y) & E(y, z) & E(z, w)",
            "--vars", "x", "y", "z", "w",
            "--engine", engine,
            "--max-steps", "5000",
            "--timeout", "30",
        )
        assert result.returncode == 4, result.stderr
        assert "budget exhausted" in result.stderr

    @pytest.mark.parametrize("engine", ["foc1", "robust", "baseline"])
    def test_engines_agree_on_the_cli(self, graph_file, engine):
        result = self._run(
            "count", graph_file, "E(x, y)", "--vars", "x", "y", "--engine", engine
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "8"

    def test_robust_engine_reports_on_stderr(self, graph_file):
        result = self._run(
            "check", graph_file, "exists x. @geq1(#(y). E(x, y))",
            "--engine", "robust",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "True"
        assert "answered by foc1" in result.stderr

    def test_generous_budget_still_answers(self, graph_file):
        result = self._run(
            "term", graph_file, "#(x, y). E(x, y)",
            "--timeout", "60", "--max-steps", "1000000",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "8"

    def test_faulted_foc1_run_fails_fast_with_one_line(self, graph_file, capsys):
        # In-process so the fault injector reaches the engine.  The sweep
        # runs inline at any worker count and nothing re-runs it, so the
        # fault fails the command as a typed error, with no partial answer.
        import repro.__main__ as cli
        from repro.robust import FaultInjector, inject_faults

        with inject_faults(FaultInjector({"memo.insert": 1})) as injector:
            code = cli.main(
                [
                    "unary", graph_file, "#(y). E(x, y)", "--var", "x",
                    "--workers", "2",
                ]
            )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert injector.fired["memo.insert"] == 1

    def test_faulted_robust_run_falls_through_byte_identical(
        self, graph_file, capsys
    ):
        import repro.__main__ as cli
        from repro.robust import FaultInjector, inject_faults

        assert cli.main(["unary", graph_file, "#(y). E(x, y)", "--var", "x"]) == 0
        serial_out = capsys.readouterr().out
        with inject_faults(FaultInjector({"memo.insert": 1})) as injector:
            code = cli.main(
                [
                    "unary", graph_file, "#(y). E(x, y)", "--var", "x",
                    "--engine", "robust", "--workers", "2",
                ]
            )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == serial_out  # the baseline stage's exact answer
        assert "answered by baseline" in captured.err
        assert injector.fired["memo.insert"] == 1

    def test_internal_error_exits_3_with_one_line(self, monkeypatch, capsys):
        # Simulate a genuine bug behind the CLI surface: no traceback, one
        # line on stderr, exit code 3 (in-process; subprocesses can't be
        # monkeypatched).
        import repro.__main__ as cli

        def explode(path):
            raise ZeroDivisionError("simulated internal bug")

        monkeypatch.setattr(cli, "load_structure", explode)
        code = cli.main(["info", "whatever.txt"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.strip() == (
            "internal error: ZeroDivisionError: simulated internal bug"
        )
        assert "Traceback" not in captured.err

    def test_bad_input_still_exits_2_in_process(self, capsys):
        import repro.__main__ as cli

        code = cli.main(["info", "/nonexistent/file.txt"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [("--timeout", "-5"), ("--max-steps", "-1")]
    )
    def test_negative_limits_are_bad_input_not_internal(self, graph_file, flags):
        # A nonsensical budget is the caller's mistake: exit 2, not 3.
        result = self._run("count", graph_file, "E(x, y)", "--vars", "x", "y", *flags)
        assert result.returncode == 2, result.stderr
        assert "must be non-negative" in result.stderr

    def test_exit_codes_are_distinct(self):
        from repro.__main__ import (
            EXIT_BAD_INPUT,
            EXIT_BUDGET,
            EXIT_INTERNAL,
            EXIT_OK,
            EXIT_PARTIAL,
        )

        assert (
            len({EXIT_OK, EXIT_BAD_INPUT, EXIT_INTERNAL, EXIT_BUDGET, EXIT_PARTIAL})
            == 5
        )


class TestCliPreemption:
    """Suspend/resume contract: exit 6, checkpoint on disk, identical
    output after resume; --report-json schema; budget-flag validation."""

    @pytest.fixture
    def graph_file(self, tmp_path):
        target = tmp_path / "graph.txt"
        target.write_text("1 2\n2 3\n3 4\n4 1\n1 3\n2 4\n")
        return str(target)

    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            timeout=240,
        )

    QUERY = ("count", "E(x, y) & E(y, z)", "--vars", "x", "y", "z")

    def _query(self, graph_file, *extra):
        cmd, formula, *rest = self.QUERY
        return self._run(cmd, graph_file, formula, *rest, *extra)

    def test_suspend_exits_6_and_writes_checkpoint(self, graph_file, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        result = self._query(
            graph_file, "--max-steps", "10", "--checkpoint", ckpt
        )
        assert result.returncode == 6, result.stderr
        assert result.stdout == ""  # no half answer on stdout
        assert "# suspended:" in result.stderr
        assert f"--resume {ckpt}" in result.stderr
        assert os.path.exists(ckpt)

    def test_resume_completes_with_identical_output(self, graph_file, tmp_path):
        expected = self._query(graph_file)
        assert expected.returncode == 0, expected.stderr
        ckpt = str(tmp_path / "run.ckpt")
        first = self._query(
            graph_file, "--max-steps", "10", "--checkpoint", ckpt
        )
        assert first.returncode == 6, first.stderr
        resumed = self._query(
            graph_file, "--max-steps", "100000", "--resume", ckpt
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == expected.stdout

    def test_repeated_quantum_suspensions_still_converge(
        self, graph_file, tmp_path
    ):
        # Resume under the SAME tiny quantum: each round suspends again and
        # rewrites the checkpoint until the restored state carries the run
        # over the line — the multi-quantum CLI path of the differential
        # suite.  The quantum doubles only if a round records no progress.
        expected = self._query(graph_file)
        ckpt = str(tmp_path / "run.ckpt")
        quantum = 10
        result = self._query(
            graph_file, "--max-steps", str(quantum), "--checkpoint", ckpt
        )
        assert result.returncode == 6, result.stderr
        suspensions = 1
        for _ in range(40):
            result = self._query(
                graph_file, "--max-steps", str(quantum), "--resume", ckpt
            )
            if result.returncode == 0:
                break
            assert result.returncode == 6, result.stderr
            suspensions += 1
            quantum *= 2
        assert result.returncode == 0, result.stderr
        assert result.stdout == expected.stdout
        assert suspensions >= 2

    def test_mixed_element_types_checkpoint_and_resume(self, tmp_path, capsys):
        # An int/str universe: the structure digest and the stratum records
        # cannot sort its tuples naturally and fall back to universe order.
        import repro.__main__ as cli

        mixed = str(tmp_path / "mixed.json")
        save_structure(graph_structure([1, "a", 2], [(1, "a"), ("a", 2)]), mixed)
        ckpt = str(tmp_path / "mixed.ckpt")
        count = ["count", mixed, "E(x, y)", "--vars", "x", "y"]
        assert cli.main([*count, "--checkpoint", ckpt]) == 0
        assert capsys.readouterr().out.strip() == "4"
        term = ["term", mixed, "#(x). @gt(#(y). E(x, y), 0)"]
        assert cli.main([*term, "--max-steps", "10", "--checkpoint", ckpt]) == 6
        capsys.readouterr()
        assert cli.main([*term, "--resume", ckpt]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_resume_against_different_query_is_rejected(
        self, graph_file, tmp_path
    ):
        ckpt = str(tmp_path / "run.ckpt")
        first = self._query(
            graph_file, "--max-steps", "10", "--checkpoint", ckpt
        )
        assert first.returncode == 6, first.stderr
        other = self._run(
            "count", graph_file, "E(x, y)", "--vars", "x", "y",
            "--resume", ckpt,
        )
        assert other.returncode == 2, other.stderr
        assert "different query or structure" in other.stderr

    def test_resume_from_corrupt_checkpoint_exits_2(self, graph_file, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        ckpt.write_text("this is not a checkpoint\n")
        result = self._query(graph_file, "--resume", str(ckpt))
        assert result.returncode == 2, result.stderr
        assert "error:" in result.stderr
        assert "not a checkpoint" in result.stderr

    @pytest.mark.parametrize(
        "flags", [("--timeout", "0"), ("--max-steps", "0")]
    )
    def test_zero_limits_are_bad_input(self, graph_file, flags):
        result = self._run(
            "count", graph_file, "E(x, y)", "--vars", "x", "y", *flags
        )
        assert result.returncode == 2, result.stderr
        assert "must be a positive" in result.stderr

    def test_zero_limits_rejected_in_process(self, graph_file, capsys):
        import repro.__main__ as cli

        code = cli.main(
            ["count", graph_file, "E(x, y)", "--vars", "x", "y",
             "--max-steps", "0"]
        )
        assert code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_report_json_requires_robust_engine(self, graph_file, tmp_path):
        result = self._run(
            "count", graph_file, "E(x, y)", "--vars", "x", "y",
            "--report-json", str(tmp_path / "r.json"),
        )
        assert result.returncode == 2, result.stderr
        assert "--report-json requires --engine robust" in result.stderr

    def test_report_json_schema(self, graph_file, tmp_path):
        path = tmp_path / "report.json"
        result = self._run(
            "count", graph_file, "E(x, y)", "--vars", "x", "y",
            "--engine", "robust", "--report-json", str(path),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(path.read_text())
        assert report["schema"] == "repro-robust-report/3"
        assert report["operation"] == "count"
        assert report["answered_by"] == "foc1"
        assert "partial" not in report
        assert report["checkpoint"] is None
        stages = {s["stage"]: s for s in report["stages"]}
        assert set(stages) == {"main_algorithm", "foc1", "baseline"}
        assert stages["foc1"]["status"] == "ok"
        assert report["breakers"]["foc1"]["state"] == "closed"
        assert report["breakers"]["foc1"]["consecutive_failures"] == 0

    def test_report_json_records_suspension_checkpoint(
        self, graph_file, tmp_path
    ):
        path = tmp_path / "report.json"
        ckpt = str(tmp_path / "run.ckpt")
        result = self._query(
            graph_file, "--engine", "robust", "--max-steps", "10",
            "--checkpoint", ckpt, "--report-json", str(path),
        )
        assert result.returncode == 6, result.stderr
        report = json.loads(path.read_text())
        assert report["answered_by"] is None
        info = report["checkpoint"]
        assert info is not None
        assert info["operation"] == "count"
        assert info["suspensions"] == 1
        assert info["steps_spent"] > 0
        stages = {s["stage"]: s for s in report["stages"]}
        assert stages["foc1"]["status"] == "suspended"

    def test_six_exit_codes_are_distinct(self):
        from repro.__main__ import (
            EXIT_BAD_INPUT,
            EXIT_BUDGET,
            EXIT_INTERNAL,
            EXIT_OK,
            EXIT_PARTIAL,
            EXIT_SUSPENDED,
        )

        codes = {
            EXIT_OK,
            EXIT_BAD_INPUT,
            EXIT_INTERNAL,
            EXIT_BUDGET,
            EXIT_PARTIAL,
            EXIT_SUSPENDED,
        }
        assert len(codes) == 6
        assert EXIT_SUSPENDED == 6


class TestCliApprox:
    """``--engine approx``: seeded estimates with an explicit marker."""

    @pytest.fixture
    def dense_file(self, tmp_path):
        # Complete graph on 8 vertices: dense enough that sampling hits
        # often, small enough that the exact count (8*7*7 = 392 for the
        # path-of-length-2 query) is easy to cross-check.
        lines = [
            f"{u} {v}" for u in range(8) for v in range(u + 1, 8)
        ]
        target = tmp_path / "dense.txt"
        target.write_text("\n".join(lines) + "\n")
        return str(target)

    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            timeout=240,
        )

    def test_count_emits_estimate_with_marker(self, dense_file):
        result = self._run(
            "count", dense_file, "E(x, y) & E(y, z)",
            "--vars", "x", "y", "z",
            "--engine", "approx", "--epsilon", "0.1", "--seed", "0",
        )
        assert result.returncode == 0, result.stderr
        value = int(result.stdout.strip())
        # Exact count is 392; eps=0.1 with delta=0.05 keeps the
        # estimate comfortably inside +-20% on this input.
        assert 300 <= value <= 480
        assert "# approximate:" in result.stderr

    def test_term_accepts_ground_counting_terms(self, dense_file):
        result = self._run(
            "term", dense_file, "#(x, y). E(x, y)",
            "--engine", "approx", "--seed", "3",
        )
        assert result.returncode == 0, result.stderr
        assert "# approximate:" in result.stderr
        int(result.stdout.strip())

    def test_same_seed_same_output(self, dense_file):
        args = (
            "count", dense_file, "E(x, y)", "--vars", "x", "y",
            "--engine", "approx", "--seed", "7",
        )
        first = self._run(*args)
        second = self._run(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_report_json_is_flagged_approximate(self, dense_file, tmp_path):
        path = tmp_path / "report.json"
        result = self._run(
            "count", dense_file, "E(x, y)", "--vars", "x", "y",
            "--engine", "approx", "--seed", "1",
            "--report-json", str(path),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(path.read_text())
        assert report["schema"] == "repro-approx-result/1"
        assert report["approximate"] is True
        assert report["seed"] == 1
        assert report["epsilon"] == 0.1

    def test_check_rejects_the_approx_engine(self, dense_file):
        result = self._run(
            "check", dense_file, "exists x. E(x, x)", "--engine", "approx"
        )
        assert result.returncode == 2
        assert "count" in result.stderr

    def test_fallback_requires_a_cascade_engine(self, dense_file):
        result = self._run(
            "count", dense_file, "E(x, y)", "--vars", "x", "y",
            "--approx-fallback",
        )
        assert result.returncode == 2
        assert "robust" in result.stderr

    def test_robust_fallback_report_carries_the_flag(self, dense_file, tmp_path):
        path = tmp_path / "report.json"
        result = self._run(
            "count", dense_file, "E(x, y)", "--vars", "x", "y",
            "--engine", "robust", "--approx-fallback",
            "--report-json", str(path),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(path.read_text())
        # Plenty of budget: an exact stage answers, and the report says
        # so explicitly even with the sampler armed.
        assert report["approximate"] is False
        assert "approx" in [s["stage"] for s in report["stages"]]


class TestCliInterrupt:
    """Graceful interrupt contract: SIGINT/SIGTERM never dump a
    traceback — one line + exit 130, or checkpoint + exit 6 when a
    checkpoint session is active."""

    @pytest.fixture
    def heavy_file(self, tmp_path):
        # K30 through the brute-force engine: ~6s of main-thread
        # evaluation, a wide window to land a signal mid-run.
        lines = [
            f"{u} {v}" for u in range(1, 31) for v in range(u + 1, 31)
        ]
        target = tmp_path / "k30.txt"
        target.write_text("\n".join(lines) + "\n")
        return str(target)

    @pytest.fixture
    def graph_file(self, tmp_path):
        target = tmp_path / "graph.txt"
        target.write_text("1 2\n2 3\n3 4\n4 1\n")
        return str(target)

    HEAVY_QUERY = (
        "E(x, y) & E(y, z) & E(z, w)",
        "--vars", "x", "y", "z", "w",
        "--engine", "baseline",
    )

    def _interrupt_mid_run(self, *args):
        import signal
        import time

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        time.sleep(1.5)  # past startup, well before the ~6s run ends
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
        return proc.returncode, out, err

    def test_sigterm_exits_130_with_one_line(self, heavy_file):
        code, out, err = self._interrupt_mid_run(
            "count", heavy_file, *self.HEAVY_QUERY
        )
        assert code == 130, err
        assert out == ""  # no half answer
        assert err.strip() == "interrupted"
        assert "Traceback" not in err

    def test_sigterm_with_checkpoint_saves_and_exits_6(
        self, heavy_file, tmp_path
    ):
        ckpt = str(tmp_path / "run.ckpt")
        code, out, err = self._interrupt_mid_run(
            "count", heavy_file, *self.HEAVY_QUERY, "--checkpoint", ckpt
        )
        assert code == 6, err
        assert out == ""
        assert "# interrupted: saving checkpoint" in err
        assert f"--resume {ckpt}" in err
        assert "Traceback" not in err
        assert os.path.exists(ckpt)

    def test_keyboard_interrupt_exits_130_in_process(
        self, monkeypatch, capsys
    ):
        import repro.__main__ as cli

        def interrupt(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "load_structure", interrupt)
        code = cli.main(["info", "whatever.txt"])
        captured = capsys.readouterr()
        assert code == 130
        assert captured.err.strip() == "interrupted"
        assert "Traceback" not in captured.err

    def test_keyboard_interrupt_with_checkpoint_exits_6_in_process(
        self, graph_file, tmp_path, monkeypatch, capsys
    ):
        import repro.__main__ as cli
        from repro.core.evaluator import Foc1Evaluator

        def interrupt(self, structure, expression, variables):
            raise KeyboardInterrupt

        monkeypatch.setattr(Foc1Evaluator, "count", interrupt)
        ckpt = str(tmp_path / "run.ckpt")
        code = cli.main(
            ["count", graph_file, "E(x, y)", "--vars", "x", "y",
             "--checkpoint", ckpt]
        )
        captured = capsys.readouterr()
        assert code == 6
        assert "# interrupted: saving checkpoint" in captured.err
        assert os.path.exists(ckpt)

    def test_seven_exit_codes_are_distinct(self):
        from repro.__main__ import (
            EXIT_BAD_INPUT,
            EXIT_BUDGET,
            EXIT_INTERNAL,
            EXIT_INTERRUPTED,
            EXIT_OK,
            EXIT_PARTIAL,
            EXIT_SUSPENDED,
        )

        codes = {
            EXIT_OK,
            EXIT_BAD_INPUT,
            EXIT_INTERNAL,
            EXIT_BUDGET,
            EXIT_PARTIAL,
            EXIT_SUSPENDED,
            EXIT_INTERRUPTED,
        }
        assert len(codes) == 7
        assert EXIT_INTERRUPTED == 130  # 128 + SIGINT, shell convention


class TestCliServe:
    """`serve` replays a JSONL workload through the multi-tenant
    service: JSONL responses, typed shed records, `# serve` summary."""

    @pytest.fixture
    def graph_file(self, tmp_path):
        # K4: count E(x, y) = 12, term #(x, y). E(x, y) = 12.
        target = tmp_path / "graph.txt"
        target.write_text("1 2\n2 3\n3 4\n4 1\n1 3\n2 4\n")
        return str(target)

    def _workload(self, tmp_path, lines):
        target = tmp_path / "workload.jsonl"
        target.write_text(
            "\n".join(
                line if isinstance(line, str) else json.dumps(line)
                for line in lines
            )
            + "\n"
        )
        return str(target)

    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", *args],
            capture_output=True,
            text=True,
            timeout=240,
        )

    def test_end_to_end_values(self, graph_file, tmp_path):
        workload = self._workload(
            tmp_path,
            [
                {"tenant": "a", "op": "count", "query": "E(x, y)",
                 "vars": ["x", "y"], "id": "c1"},
                {"tenant": "b", "op": "term",
                 "query": "#(x, y). E(x, y)", "id": "t1"},
                {"tenant": "a", "op": "check",
                 "query": "forall x. @geq1(#(y). E(x, y))", "id": "k1"},
            ],
        )
        result = self._run(graph_file, workload)
        assert result.returncode == 0, result.stderr
        responses = {
            line["request_id"]: line
            for line in map(json.loads, result.stdout.strip().splitlines())
        }
        assert responses["c1"]["value"] == 12
        assert responses["t1"]["value"] == 12
        assert responses["k1"]["value"] is True
        assert all(r["status"] == "ok" for r in responses.values())
        assert all(r["approximate"] is False for r in responses.values())
        assert '"# serve' not in result.stdout
        summary = json.loads(
            next(
                line for line in result.stderr.splitlines()
                if line.startswith("# serve ")
            )[len("# serve "):]
        )
        assert summary["requests"] == 3
        assert summary["completed"] == 3
        assert summary["orphaned_checkpoints"] == 0

    def test_output_flag_writes_jsonl_file(self, graph_file, tmp_path):
        workload = self._workload(
            tmp_path,
            [{"op": "count", "query": "E(x, y)", "vars": ["x", "y"],
              "id": "c1"}],
        )
        out_path = tmp_path / "responses.jsonl"
        result = self._run(graph_file, workload, "--output", str(out_path))
        assert result.returncode == 0, result.stderr
        assert result.stdout == ""
        lines = [
            json.loads(line)
            for line in out_path.read_text().strip().splitlines()
        ]
        assert lines[0]["value"] == 12
        assert lines[0]["schema"] == "repro-serve-response/1"

    def test_overload_sheds_typed_records(self, graph_file, tmp_path):
        workload = self._workload(
            tmp_path,
            [
                {"tenant": "t", "op": "count", "query": "E(x, y)",
                 "vars": ["x", "y"], "id": f"r{i}"}
                for i in range(6)
            ],
        )
        # One quantum slot, zero queue, six eager clients: everything
        # past the running request sheds with a machine-readable reason.
        result = self._run(
            graph_file, workload,
            "--serve-workers", "1", "--max-queue", "0", "--clients", "6",
        )
        assert result.returncode == 0, result.stderr
        lines = [
            json.loads(line)
            for line in result.stdout.strip().splitlines()
        ]
        shed = [line for line in lines if line["status"] == "shed"]
        assert shed, "zero queue must shed under concurrent clients"
        assert all(line["reason"] == "queue_full" for line in shed)
        assert "killed" not in result.stderr  # shed, never killed

    def test_metrics_flag_prints_serve_counters(self, graph_file, tmp_path):
        workload = self._workload(
            tmp_path,
            [{"op": "count", "query": "E(x, y)", "vars": ["x", "y"],
              "id": "c1"}],
        )
        result = self._run(graph_file, workload, "--metrics")
        assert result.returncode == 0, result.stderr
        metrics_line = next(
            line for line in result.stderr.splitlines()
            if line.startswith("# metrics ")
        )
        snapshot = json.loads(metrics_line[len("# metrics "):])
        assert snapshot["counters"]["serve.admitted"] == 1
        assert snapshot["counters"]["serve.completed"] == 1

    def test_invalid_json_line_exits_2(self, graph_file, tmp_path):
        workload = self._workload(tmp_path, ["this is not json"])
        result = self._run(graph_file, workload)
        assert result.returncode == 2, result.stderr
        assert "workload line 1" in result.stderr
        assert "invalid JSON" in result.stderr

    def test_missing_query_field_exits_2(self, graph_file, tmp_path):
        workload = self._workload(tmp_path, [{"op": "count"}])
        result = self._run(graph_file, workload)
        assert result.returncode == 2, result.stderr
        assert "'query' field" in result.stderr

    def test_empty_workload_exits_2(self, graph_file, tmp_path):
        workload = self._workload(tmp_path, ["# only a comment"])
        result = self._run(graph_file, workload)
        assert result.returncode == 2, result.stderr
        assert "contains no requests" in result.stderr

    def test_bad_quota_flags_exit_2(self, graph_file, tmp_path):
        workload = self._workload(
            tmp_path,
            [{"op": "count", "query": "E(x, y)", "vars": ["x", "y"]}],
        )
        result = self._run(graph_file, workload, "--max-inflight", "0")
        assert result.returncode == 2, result.stderr
        result = self._run(graph_file, workload, "--clients", "0")
        assert result.returncode == 2, result.stderr
