"""Tests for the Section 8.2 main-algorithm loop (cover -> splitter move ->
removal -> Lemma 7.9 -> recombination)."""

import traceback

import pytest
from hypothesis import given, settings

from repro.core.clterms import BasicClTerm
from repro.core.local_eval import evaluate_basic_unary
from repro.core.main_algorithm import (
    MainAlgorithmStats,
    evaluate_unary_main_algorithm,
)
from repro.errors import BudgetExceededError, FormulaError
from repro.logic.builder import Rel
from repro.logic.syntax import And, Eq, Exists, Not
from repro.obs import collect_metrics
from repro.plan import PlanCache
from repro.robust.budget import EvaluationBudget
from repro.sparse.classes import bounded_degree_graph, random_tree
from repro.sparse.covers import sparse_cover
from repro.structures.builders import complete_graph, grid_graph, path_graph

from ..conftest import small_graphs

E = Rel("E", 2)


def degree_term():
    return BasicClTerm(
        ("y1", "y2"), E("y1", "y2"), 0, 1, frozenset({(1, 2)}), unary=True
    )


def local_quantified_term():
    psi = And(E("y1", "y2"), Exists("z", And(E("y2", "z"), Not(Eq("z", "y1")))))
    return BasicClTerm(("y1", "y2"), psi, 1, 1, frozenset({(1, 2)}), unary=True)


def path_term():
    """cover-main's path term: walks y1 - y2 - y3 with y3 != y1."""
    psi = And(And(E("y1", "y2"), E("y2", "y3")), Not(Eq("y1", "y3")))
    return BasicClTerm(
        ("y1", "y2", "y3"), psi, 0, 1, frozenset({(1, 2), (2, 3)}), unary=True
    )


def width3_term():
    psi = And(E("y1", "y2"), E("y2", "y3"))
    return BasicClTerm(
        ("y1", "y2", "y3"), psi, 0, 1, frozenset({(1, 2), (2, 3)}), unary=True
    )


class TestExactness:
    @pytest.mark.parametrize(
        "make_structure",
        [
            lambda: path_graph(17),
            lambda: grid_graph(5, 5),
            lambda: random_tree(35, seed=4),
        ],
    )
    @pytest.mark.parametrize(
        "make_term", [degree_term, local_quantified_term, width3_term]
    )
    def test_matches_local_evaluation(self, make_structure, make_term):
        structure = make_structure()
        term = make_term()
        got = evaluate_unary_main_algorithm(structure, term, depth=1)
        assert got == evaluate_basic_unary(structure, term)

    @given(small_graphs(min_vertices=2, max_vertices=7))
    @settings(max_examples=20, deadline=None)
    def test_random_structures(self, structure):
        term = degree_term()
        got = evaluate_unary_main_algorithm(structure, term, depth=1)
        assert got == evaluate_basic_unary(structure, term)

    def test_depth_zero_is_pure_engine(self):
        structure = grid_graph(4, 4)
        term = degree_term()
        stats = MainAlgorithmStats()
        got = evaluate_unary_main_algorithm(structure, term, depth=0, stats=stats)
        assert got == evaluate_basic_unary(structure, term)
        assert stats.removals == 0
        assert stats.covers_built == 0

    def test_every_positive_depth_is_one_round(self):
        structure = grid_graph(16, 16)
        runs = []
        for depth in (1, 3):
            stats = MainAlgorithmStats()
            values = evaluate_unary_main_algorithm(
                structure, path_term(), depth=depth, stats=stats
            )
            runs.append((values, stats))
        (one, one_stats), (three, three_stats) = runs
        assert list(three.items()) == list(one.items())
        assert three_stats == one_stats
        assert one_stats.max_depth_reached == 2

    def test_dense_structure_falls_back(self):
        """On a clique the cover is one whole-graph cluster: the loop must
        detect that removal is useless and stay exact via the base case."""
        structure = complete_graph(14)
        term = degree_term()
        stats = MainAlgorithmStats()
        got = evaluate_unary_main_algorithm(
            structure, term, depth=1, small_threshold=4, stats=stats
        )
        assert got == evaluate_basic_unary(structure, term)
        assert stats.removals == 0  # the single cluster covers everything


class TestMachineryEngagement:
    def test_removals_happen_on_sparse_inputs(self):
        structure = path_graph(40)
        stats = MainAlgorithmStats()
        evaluate_unary_main_algorithm(
            structure, degree_term(), depth=1, small_threshold=4, stats=stats
        )
        assert stats.covers_built == 1
        assert stats.removals >= 1
        assert stats.clusters_processed >= 2

    def test_ground_recombination_at_removed_element(self):
        """The removed element d gets its value from the Lemma 7.9 ground
        parts; verify it explicitly on a path."""
        structure = path_graph(30)
        stats = MainAlgorithmStats()
        got = evaluate_unary_main_algorithm(
            structure, degree_term(), depth=1, small_threshold=4, stats=stats
        )
        assert stats.removals >= 1
        expected = evaluate_basic_unary(structure, degree_term())
        assert got == expected

    def test_rejects_ground_terms(self):
        ground = BasicClTerm(
            ("y1", "y2"), E("y1", "y2"), 0, 1, frozenset({(1, 2)}), unary=False
        )
        with pytest.raises(FormulaError):
            evaluate_unary_main_algorithm(path_graph(5), ground)


#: ``MainAlgorithmStats`` fields ``(covers_built, clusters_processed,
#: removals, base_case_elements, max_depth_reached)`` at depth 1, per
#: structure and term.  ``base_case_elements`` counts each live member once
#: per Lemma 7.9 unary part (2^k of them), plus the members of clusters
#: evaluated directly.
PINNED_STATS = {
    "path40": {"degree": (1, 14, 14, 52, 2), "path": (1, 10, 10, 120, 2)},
    "grid16x16": {"degree": (1, 48, 48, 416, 2), "path": (1, 36, 36, 880, 2)},
    "tree256": {"degree": (1, 66, 66, 380, 2), "path": (1, 42, 42, 856, 2)},
    # One cluster here is a singleton and takes the direct fallback.
    "bd256": {"degree": (1, 49, 48, 415, 2), "path": (1, 29, 28, 909, 2)},
}

STRUCTURES = {
    "path40": lambda: path_graph(40),
    "grid16x16": lambda: grid_graph(16, 16),
    "tree256": lambda: random_tree(256, seed=3),
    "bd256": lambda: bounded_degree_graph(256, 3, seed=5),
}

TERMS = {"degree": degree_term, "path": path_term}


class TestCoverMainSizes:
    """The loop at the sizes of the cover-main benchmark: pinned counters
    and exactness against ball exploration."""

    @pytest.mark.parametrize("term_name", sorted(TERMS))
    @pytest.mark.parametrize("structure_name", sorted(STRUCTURES))
    def test_counters_and_values(self, structure_name, term_name):
        structure = STRUCTURES[structure_name]()
        term = TERMS[term_name]()
        stats = MainAlgorithmStats()
        with collect_metrics() as metrics:
            got = evaluate_unary_main_algorithm(
                structure, term, depth=1, stats=stats
            )
        assert (
            stats.covers_built,
            stats.clusters_processed,
            stats.removals,
            stats.base_case_elements,
            stats.max_depth_reached,
        ) == PINNED_STATS[structure_name][term_name]
        assert metrics.counter("main.cluster.processed") == stats.clusters_processed
        assert metrics.counter("main.removal") == stats.removals
        assert got == evaluate_basic_unary(structure, term)

    @pytest.mark.parametrize("structure_name", sorted(STRUCTURES))
    def test_quantified_term_is_exact(self, structure_name):
        structure = STRUCTURES[structure_name]()
        term = local_quantified_term()
        got = evaluate_unary_main_algorithm(structure, term, depth=1)
        assert got == evaluate_basic_unary(structure, term)


class TestCompileOnce:
    @pytest.mark.parametrize("term_name", sorted(TERMS))
    def test_each_search_program_is_compiled_once(self, term_name):
        """The level's two plans carry their search programs, so the loop
        compiles each (plan, node) pair once however many clusters run it,
        and a second run over the warm cache compiles none.  The degree
        term's counts are all counted by elimination: it compiles none."""
        structure = grid_graph(16, 16)
        term = TERMS[term_name]()
        cache = PlanCache()
        stats = MainAlgorithmStats()
        with collect_metrics() as metrics:
            got = evaluate_unary_main_algorithm(
                structure, term, depth=1, plan_cache=cache, stats=stats
            )
        compiled = metrics.counter("plan.program.compiled")
        assert compiled == sum(len(plan.programs) for plan in cache._plans.values())
        assert compiled < stats.clusters_processed
        assert (compiled > 0) == (term_name != "degree")
        with collect_metrics() as metrics:
            again = evaluate_unary_main_algorithm(
                structure, term, depth=1, plan_cache=cache
            )
        assert again == got == evaluate_basic_unary(structure, term)
        assert metrics.counter("plan.program.compiled") == 0


class TestBudget:
    def test_small_budget_runs_out_inside_a_cluster_plan_run(self):
        structure = grid_graph(16, 16)
        term = path_term()
        # Let the cover construction finish, then run out in the first
        # cluster: its "main.cluster" tick, then its plan run.
        probe = EvaluationBudget()
        confinement = term.evaluation_radius() + max(
            term.psi_radius, term.link_distance
        )
        sparse_cover(structure, confinement, budget=probe)
        budget = EvaluationBudget(max_steps=probe.steps + 5)
        with pytest.raises(BudgetExceededError) as caught:
            evaluate_unary_main_algorithm(structure, term, depth=1, budget=budget)
        assert caught.value.site.startswith("evaluator.")
        frames = traceback.extract_tb(caught.value.__traceback__)
        names = [frame.name for frame in frames]
        assert "_process_cluster" in names
        assert any(frame.filename.endswith("executor.py") for frame in frames)

    def test_large_budget_is_exact_and_ticks_every_cluster(self):
        structure = grid_graph(16, 16)
        term = path_term()
        budget = EvaluationBudget(max_steps=10**9)
        stats = MainAlgorithmStats()
        got = evaluate_unary_main_algorithm(
            structure, term, depth=1, budget=budget, stats=stats
        )
        assert got == evaluate_basic_unary(structure, term)
        assert stats.clusters_processed > 0
        assert budget.steps >= stats.clusters_processed
