"""Shared fixtures and hypothesis strategies for the test suite.

The central strategies generate (a) small random structures over a graph or
coloured-graph signature and (b) random FO / FOC1(P) expressions, so the
optimized engines can be differential-tested against the literal
Definition 3.1 semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.logic.syntax import (
    And,
    Atom,
    CountTerm,
    Eq,
    Exists,
    Forall,
    Not,
    Or,
    PredicateAtom,
)
from repro.structures.builders import graph_structure
from repro.structures.structure import Structure

VARS = ("x", "y", "z", "w")


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------


@st.composite
def small_graphs(draw, min_vertices: int = 1, max_vertices: int = 7, directed: bool = False):
    """Random small graph structures over {E/2}."""
    n = draw(st.integers(min_vertices, max_vertices))
    vertices = list(range(1, n + 1))
    pairs = [
        (u, v)
        for u in vertices
        for v in vertices
        if (u < v if not directed else u != v)
    ]
    edges = draw(
        st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True)
        if pairs
        else st.just([])
    )
    return graph_structure(vertices, edges, symmetric=not directed)


@pytest.fixture
def path5() -> Structure:
    from repro.structures.builders import path_graph

    return path_graph(5)


@pytest.fixture
def triangle() -> Structure:
    return graph_structure([1, 2, 3], [(1, 2), (2, 3), (3, 1)])


@pytest.fixture
def sparse20() -> Structure:
    from repro.sparse.classes import sparse_random_graph

    return sparse_random_graph(20, 2.0, seed=42)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


def _atoms():
    variable = st.sampled_from(VARS)
    return st.one_of(
        st.builds(lambda a, b: Eq(a, b), variable, variable),
        st.builds(lambda a, b: Atom("E", (a, b)), variable, variable),
    )


@st.composite
def fo_formulas(draw, max_depth: int = 3):
    """Random FO formulas over {E/2} with variables from VARS."""
    if max_depth == 0:
        return draw(_atoms())
    choice = draw(st.integers(0, 5))
    if choice == 0:
        return draw(_atoms())
    if choice == 1:
        return Not(draw(fo_formulas(max_depth=max_depth - 1)))
    if choice == 2:
        return Or(
            draw(fo_formulas(max_depth=max_depth - 1)),
            draw(fo_formulas(max_depth=max_depth - 1)),
        )
    if choice == 3:
        return And(
            draw(fo_formulas(max_depth=max_depth - 1)),
            draw(fo_formulas(max_depth=max_depth - 1)),
        )
    if choice == 4:
        return Exists(
            draw(st.sampled_from(VARS)), draw(fo_formulas(max_depth=max_depth - 1))
        )
    return Forall(
        draw(st.sampled_from(VARS)), draw(fo_formulas(max_depth=max_depth - 1))
    )


@st.composite
def foc1_formulas(draw, max_depth: int = 2):
    """Random FOC1(P) formulas over {E/2}: FO connectives plus numerical
    predicate atoms applied to counting terms with at most one joint free
    variable (rule 4')."""
    if max_depth == 0:
        return draw(_atoms())
    choice = draw(st.integers(0, 6))
    if choice == 0:
        return draw(_atoms())
    if choice == 1:
        return Not(draw(foc1_formulas(max_depth=max_depth - 1)))
    if choice == 2:
        return Or(
            draw(foc1_formulas(max_depth=max_depth - 1)),
            draw(foc1_formulas(max_depth=max_depth - 1)),
        )
    if choice == 3:
        return And(
            draw(foc1_formulas(max_depth=max_depth - 1)),
            draw(foc1_formulas(max_depth=max_depth - 1)),
        )
    if choice == 4:
        return Exists(
            draw(st.sampled_from(VARS)), draw(foc1_formulas(max_depth=max_depth - 1))
        )
    if choice == 5:
        return Forall(
            draw(st.sampled_from(VARS)), draw(foc1_formulas(max_depth=max_depth - 1))
        )
    return draw(foc1_predicate_atoms(max_depth=max_depth - 1))


@st.composite
def foc1_counting_terms(draw, free_variable: str, max_depth: int = 1):
    """Counting terms whose free variables are within {free_variable}."""
    others = [v for v in VARS if v != free_variable]
    bound = draw(st.lists(st.sampled_from(others), min_size=1, max_size=2, unique=True))
    body = draw(foc1_formulas(max_depth=max_depth))
    # Restrict the body's free variables to bound + the free variable by
    # existentially closing everything else.
    from repro.logic.syntax import exists_block, free_variables

    stray = sorted(free_variables(body) - set(bound) - {free_variable})
    body = exists_block(stray, body)
    return CountTerm(tuple(bound), body)


@st.composite
def foc1_predicate_atoms(draw, max_depth: int = 1):
    """Predicate atoms obeying rule (4')."""
    free_variable = draw(st.sampled_from(VARS))
    predicate = draw(st.sampled_from(["geq1", "eq", "leq", "even", "prime"]))
    arity = {"geq1": 1, "eq": 2, "leq": 2, "even": 1, "prime": 1}[predicate]
    terms = []
    for _ in range(arity):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            from repro.logic.syntax import IntTerm

            terms.append(IntTerm(draw(st.integers(-3, 5))))
        else:
            terms.append(
                draw(foc1_counting_terms(free_variable, max_depth=max_depth))
            )
    return PredicateAtom(predicate, tuple(terms))


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------


@pytest.fixture
def fast_evaluator():
    from repro.core.evaluator import Foc1Evaluator

    return Foc1Evaluator()


@pytest.fixture
def brute_evaluator():
    from repro.core.baseline import BruteForceEvaluator

    return BruteForceEvaluator()
