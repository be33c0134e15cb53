"""Counting by elimination: properties of the routine.

A count whose counted variables form a tree (joined by binary relation
atoms, hung from at most one free variable) is summed out leaf first, and
a negated equality or distance atom becomes a difference of two counts.
Seeded random bodies over ``E/2``, ``R/2`` and ``U/1`` — tree-shaped ones
with filters, parallel atoms and negated ties, and ones that are not trees
(cycles, self-loops, a ``T/3`` atom) — are checked against the brute-force
oracle on small random structures, and fixed bodies against the unchanged
guarded search (``use_factoring=False``) at n = 1000, hub-heavy trees
included.  Plain ``random.Random(seed)``, so every case is a fixed id.
"""

import random

import pytest

from repro.core.baseline import BruteForceEvaluator
from repro.core.evaluator import Foc1Evaluator
from repro.errors import BudgetExceededError, SuspendedError
from repro.logic.parser import parse_formula, parse_term
from repro.robust.budget import EvaluationBudget
from repro.robust.checkpoint import CheckpointSession, checkpoint_session
from repro.sparse.classes import bounded_degree_graph, nearly_square_grid, random_tree
from repro.structures.builders import graph_structure, grid_graph, star_graph
from repro.structures.signature import Signature
from repro.structures.structure import Structure

COUNTED = ("y1", "y2", "y3", "y4")
PATH_TERM = "#(y2, y3). (E(y1, y2) & E(y2, y3) & !(y1 = y3))"


def _random_structure(rng: random.Random) -> Structure:
    universe = list(range(rng.randint(1, 7)))
    pairs = [(a, b) for a in universe for b in universe]
    relations = {
        "E": [p for p in pairs if rng.random() < 0.3],
        "R": [p for p in pairs if rng.random() < 0.2],
        "U": [(a,) for a in universe if rng.random() < 0.5],
        "T": [tuple(rng.choice(universe) for _ in range(3)) for _ in range(rng.randint(0, 5))],
    }
    return Structure(Signature.of(E=2, R=2, U=1, T=3), universe, relations)


def _random_body(rng: random.Random, tree: bool):
    """A conjunction over 1–4 counted variables and 0–1 free variable x,
    and the counted variables.  A tree-shaped body joins each variable to
    an earlier one by E or R (sometimes with a parallel atom), filters
    some with ``U`` or ``!U`` and may add negated equality and distance
    atoms; otherwise it also closes a cycle, adds a self-loop or a ``T``
    atom."""
    counted = list(COUNTED[: rng.randint(1, 4)])
    names = (["x"] if rng.random() < 0.5 else []) + counted
    rng.shuffle(names)

    def atom(u, v):
        relation = rng.choice("ER")
        return f"{relation}({u}, {v})" if rng.random() < 0.5 else f"{relation}({v}, {u})"

    parts = []
    for i, name in enumerate(names[1:], 1):
        parent = rng.choice(names[:i])
        parts.append(atom(parent, name))
        if rng.random() < 0.25:
            parts.append(atom(parent, name))  # parallel (or repeated) atom
    for name in counted:
        if rng.random() < 0.3:
            parts.append(rng.choice(["U", "!U"]) + f"({name})")
    for _ in range(rng.randint(0, 2)):
        u, v = rng.choice(counted), rng.choice(names)
        if u != v:
            parts.append(
                f"!({u} = {v})" if rng.random() < 0.5
                else f"!(dist({u}, {v}) <= {rng.randint(1, 2)})"
            )
    if not tree:
        u, v, w = (rng.choice(names) for _ in range(3))
        parts.append(
            rng.choice([atom(u, v), f"E({u}, {u})", f"T({u}, {v}, {w})", f"!E({u}, {v})"])
        )
    if len(names) == 1 or rng.random() < 0.2:
        parts.append(f"U({names[0]})")
    rng.shuffle(parts)
    return " & ".join(parts), tuple(v for v in COUNTED if v in counted), "x" in names


@pytest.mark.parametrize("tree", [True, False], ids=["tree", "not-tree"])
@pytest.mark.parametrize("block", range(3))
def test_bodies_agree_with_the_oracle(tree, block):
    """Counts, ground terms with strata and unary terms (whole columns and
    single elements) equal the brute-force answers."""
    oracle = BruteForceEvaluator()
    for seed in range(100 * block, 100 * (block + 1)):
        rng = random.Random(seed)
        structure = _random_structure(rng)
        text, counted, free = _random_body(rng, tree)
        inner = f"#({', '.join(counted)}). ({text})"
        engine = Foc1Evaluator(workers=1)
        phi = parse_formula(text)
        variables = list(counted) + (["x"] if free else [])
        assert engine.count(structure, phi, variables) == oracle.count(
            structure, phi, variables
        ), (seed, text)
        ground = parse_term(f"#(x). @gt({inner}, 1)" if free else f"{inner} + 1")
        assert engine.ground_term_value(structure, ground) == oracle.ground_term_value(
            structure, ground
        ), (seed, text)
        if free:
            term = parse_term(inner)
            expected = oracle.unary_term_values(structure, term, "x")
            assert engine.unary_term_values(structure, term, "x") == expected, (seed, text)
            a = rng.choice(structure.universe_order)
            single = Foc1Evaluator(workers=1).unary_term_values(structure, term, "x", [a])
            assert single == {a: expected[a]}, (seed, text)


def spider(n: int, seed: int = 0) -> Structure:
    """Four hubs on a path; every other vertex is a leaf of a seeded
    random hub."""
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2), (2, 3)] + [(v, rng.randrange(4)) for v in range(4, n)]
    return graph_structure(range(n), edges)


LARGE = {
    "grid": lambda: nearly_square_grid(1000),
    "tree": lambda: random_tree(1000, seed=1),
    "bd3": lambda: bounded_degree_graph(1000, 3, seed=1),
    "star": lambda: star_graph(999),
    "spider": lambda: spider(1000, seed=1),
}

#: Fixed bodies at n = 1000: paths2, the path term, a stratum under a
#: filter, a negated distance, parallel atoms and a component with no free
#: variable beside one with it.
LARGE_QUERIES = (
    ("count", "E(x, y) & E(y, z) & !(x = z)"),
    ("unary", PATH_TERM.replace("y1", "x")),
    ("unary", "#(y). (E(x, y) & @gt(#(z). E(y, z), 2))"),
    ("unary", "#(y, z). (E(x, y) & E(y, z) & !(dist(x, z) <= 1))"),
    ("ground", "#(x, y). (E(x, y) & E(y, x)) + #(x). @eq(#(y). E(x, y), 1)"),
    ("unary", "#(y, z). (E(x, y) & E(z, z))"),
)


@pytest.mark.parametrize("family", sorted(LARGE))
def test_large_answers_equal_the_guarded_search(family):
    structure = LARGE[family]()
    fast = Foc1Evaluator(workers=1)
    search = Foc1Evaluator(workers=1, use_factoring=False)
    rng = random.Random(family)
    for operation, text in LARGE_QUERIES:
        if operation == "count":
            phi = parse_formula(text)
            assert fast.count(structure, phi, ["x", "y", "z"]) == search.count(
                structure, phi, ["x", "y", "z"]
            ), text
        elif operation == "ground":
            term = parse_term(text)
            assert fast.ground_term_value(structure, term) == search.ground_term_value(
                structure, term
            ), text
        else:
            term = parse_term(text)
            expected = search.unary_term_values(structure, term, "x")
            assert fast.unary_term_values(structure, term, "x") == expected, text
            a = rng.choice(structure.universe_order)
            assert fast.unary_term_values(structure, term, "x", [a]) == {a: expected[a]}


class TestBudgets:
    def test_a_step_limit_stops_an_eliminated_count(self):
        phi = parse_formula("E(x, y) & E(y, z) & !(x = z)")
        engine = Foc1Evaluator(budget=EvaluationBudget(max_steps=1_000), workers=1)
        with pytest.raises(BudgetExceededError):
            engine.count(star_graph(10_000), phi, ["x", "y", "z"])

    def test_one_element_never_scans_the_relation(self):
        """The path term at one vertex of a 10,000-vertex grid: the
        difference, its two sides at the vertex, and the child column over
        the vertex's four neighbours — a few dozen steps."""
        structure = grid_graph(100, 100)
        budget = EvaluationBudget()
        engine = Foc1Evaluator(budget=budget, workers=1)
        values = engine.unary_term_values(structure, parse_term(PATH_TERM), "y1", [(50, 50)])
        assert values == {(50, 50): 12}
        assert budget.steps < 100

    def test_a_component_without_free_variables_is_counted_once(self):
        """On a directed 200-cycle with 100 marked vertices, per x: one count
        tick and the one member of E(x, .)'s pool; ``#(z). U(z)`` is its own
        count, ticked once with its 100 members: 200 * 2 + 101 steps, as
        the product ``#(y). E(x, y) * #(z). U(z)`` ticks (20,400 when every
        x counted the marked vertices again)."""
        n = 200
        structure = Structure(
            Signature.of(E=2, U=1),
            range(n),
            {"E": [(i, (i + 1) % n) for i in range(n)], "U": [(i,) for i in range(0, n, 2)]},
        )
        steps = []
        for text in ("#(y, z). (E(x, y) & U(z))", "#(y). E(x, y) * #(z). U(z)"):
            budget = EvaluationBudget()
            values = Foc1Evaluator(budget=budget, workers=1).unary_term_values(
                structure, parse_term(text), "x"
            )
            assert set(values.values()) == {100}
            steps.append(budget.steps)
        assert steps == [2 * n + 1 + n // 2] * 2 == [501, 501]

    def test_a_count_suspended_mid_column_resumes(self):
        """Suspended at half its steps, the path term resumes to the same
        column and both quanta spend at most 1.05x the uninterrupted
        steps: the finished prefix of every column is kept."""
        structure = nearly_square_grid(400)
        term = parse_term(PATH_TERM)

        def call(budget):
            return Foc1Evaluator(budget=budget, workers=1).unary_term_values(
                structure, term, "y1"
            )

        whole = EvaluationBudget(max_steps=10**9, preemptible=True)
        expected = call(whole)
        session = CheckpointSession(operation="test", query_key="test")
        first = EvaluationBudget(max_steps=whole.steps // 2, preemptible=True)
        with pytest.raises(SuspendedError), checkpoint_session(session):
            call(first)
        second = EvaluationBudget(max_steps=10**9, preemptible=True)
        resume = session.snapshot(first.steps)
        with checkpoint_session(CheckpointSession(resume=resume)):
            assert call(second) == expected
        assert first.steps + second.steps <= 1.05 * whole.steps
