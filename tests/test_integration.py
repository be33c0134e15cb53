"""Cross-module integration tests: full pipelines spanning several
subsystems, mirroring how a downstream user composes the library."""

import random


from repro import (
    BruteForceEvaluator,
    Foc1Evaluator,
    Rel,
    graph_structure,
    parse_formula,
)
from repro.core.clterms import BasicClTerm
from repro.core.decomposition import decompose_factored_count
from repro.core.local_eval import evaluate_polynomial_unary
from repro.core.main_algorithm import evaluate_unary_main_algorithm
from repro.core.query import eliminate_free_variables
from repro.db import CUSTOMER, EXAMPLE_5_3_SCHEMA, Database, group_by_count
from repro.hardness import reduce_to_string, reduce_to_tree
from repro.logic.semantics import satisfies
from repro.sparse import rounds_needed, sparse_cover
from repro.sparse.classes import coloured_digraph, random_tree

E = Rel("E", 2)


class TestQueryPipelineAgainstSection5:
    """Foc1Query evaluation == pinned-sentence evaluation == brute force."""

    def test_three_routes_agree(self):
        graph = coloured_digraph(14, 2.0, seed=21)
        from repro.logic.examples import example_5_4_query

        query = example_5_4_query()
        fast = Foc1Evaluator()
        brute = BruteForceEvaluator()

        rows_fast = sorted(fast.evaluate_query(graph, query))
        rows_brute = sorted(brute.evaluate_query(graph, query))
        assert rows_fast == rows_brute

        # third route: Section 5 pinning, tuple by tuple
        import itertools

        pinned_rows = []
        for tup in itertools.product(graph.universe_order, repeat=2):
            expanded, sentence, terms = eliminate_free_variables(
                query, graph, list(tup)
            )
            if satisfies(expanded, sentence):
                values = tuple(
                    brute.ground_term_value(expanded, term) for term in terms
                )
                pinned_rows.append(tup + values)
        assert sorted(pinned_rows) == rows_fast


class TestDecompositionMatchesEngine:
    def test_three_evaluation_paths_for_unary_term(self):
        structure = random_tree(30, seed=13)
        variables = ("y1", "y2", "y3")
        body = (E("y1", "y2") & E("y2", "y3"))

        # path 1: the engine
        from repro.logic.syntax import CountTerm

        engine_values = Foc1Evaluator().unary_term_values(
            structure, CountTerm(("y2", "y3"), body), "y1"
        )

        # path 2: Lemma 6.4 decomposition + ball exploration
        poly = decompose_factored_count(variables, body, 0, 1, unary=True)
        poly_values = evaluate_polynomial_unary(structure, poly)

        # path 3: the Section 8.2 main algorithm on the connected pattern
        term = BasicClTerm(
            variables, body, 0, 1, frozenset({(1, 2), (2, 3)}), unary=True
        )
        # main-algorithm counts tuples with *exact* pattern chains only;
        # restrict comparison to its own ball-exploration reference.
        from repro.core.local_eval import evaluate_basic_unary

        main_values = evaluate_unary_main_algorithm(structure, term, depth=1)
        assert main_values == evaluate_basic_unary(structure, term)

        assert engine_values == poly_values


class TestHardnessRoundTrip:
    def test_same_question_three_substrates(self):
        rng = random.Random(31)
        n = 5
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.4
        ]
        graph = graph_structure(range(1, n + 1), edges)
        phi = parse_formula("forall x. exists y. E(x, y)")
        truth = satisfies(graph, phi)

        engine = Foc1Evaluator(check_fragment=False)
        tree, phi_tree = reduce_to_tree(graph, phi)
        string, phi_string = reduce_to_string(graph, phi)
        assert engine.model_check(tree, phi_tree) == truth
        assert engine.model_check(string, phi_string) == truth

        # the encodings are sparse objects: covers and games behave
        assert rounds_needed(tree, 1) <= 6
        sparse_cover(tree, 2).verify(check_radius=4)


class TestDatabasePipeline:
    def test_db_to_structure_to_query(self):
        rng = random.Random(5)
        db = Database(EXAMPLE_5_3_SCHEMA)
        for i in range(1, 25):
            db.insert(
                "Customer",
                (i, f"f{i%3}", f"l{i%2}", "Berlin" if i % 2 else "Rome",
                 "DE" if i % 2 else "IT", f"p{i}"),
            )
        for o in range(1, 60):
            db.insert("Order_", (500 + o, "d", f"n{o}", rng.randint(1, 24), o))

        compiled = group_by_count(CUSTOMER, ["Country"], "Id")
        rows = dict(compiled.execute(db))
        assert rows["DE"] + rows["IT"] == 24

        # the encoded structure supports arbitrary FOC1 on top of the schema
        structure = db.to_structure()
        customers = parse_formula(
            "@eq(#(i, f, l, c, co, p). Customer(i, f, l, c, co, p), 24)"
        )
        assert Foc1Evaluator().model_check(structure, customers)
