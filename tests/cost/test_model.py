"""Tests for :mod:`repro.cost.model` — bounds and the estimator.

The property tests pin the estimator's soundness obligations: adding tuples
never *decreases* a provable cardinality lower bound (for negation-free
bodies — complements are anti-monotone by design), and estimates over
empty relations are exact zeros, not heuristics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import CardBound, CardinalityEstimator, structure_stats
from repro.core.evaluator import Foc1Evaluator
from repro.logic.parser import parse_formula
from repro.structures.builders import graph_structure, path_graph
from repro.structures.signature import Signature
from repro.structures.structure import Structure


class TestCardBound:
    def test_exactly(self):
        b = CardBound.exactly(7)
        assert (b.lower, b.upper, b.estimate, b.exact) == (7, 7, 7, True)

    def test_ranged_clamps_estimate_into_interval(self):
        b = CardBound.ranged(2, 10, 99)
        assert b.estimate == 10
        assert CardBound.ranged(2, 10, 0).estimate == 2

    def test_ranged_open_upper(self):
        b = CardBound.ranged(3, None, 1)
        assert b.upper is None
        assert b.estimate == 3
        assert not b.exact

    def test_negative_and_nan_clip_to_zero(self):
        assert CardBound.exactly(-5).lower == 0
        assert CardBound.exactly(float("nan")).lower == 0

    def test_complement(self):
        b = CardBound.ranged(2, 6, 4)
        c = b.complement(10)
        assert (c.lower, c.upper, c.estimate) == (4, 8, 6)
        # Open upper on the inside means no lower bound on the outside.
        assert CardBound.ranged(2, None, 4).complement(10).lower == 0

    def test_union_max(self):
        a = CardBound.ranged(2, 5, 3)
        b = CardBound.ranged(4, 6, 5)
        u = a.union_max(b)
        assert (u.lower, u.upper) == (4, 11)

    @given(
        st.floats(0, 1e6),
        st.one_of(st.none(), st.floats(0, 1e6)),
        st.floats(-1e6, 1e7),
    )
    def test_ranged_invariant(self, lower, upper, estimate):
        b = CardBound.ranged(lower, upper, estimate)
        assert b.lower <= b.estimate
        if b.upper is not None:
            assert b.lower <= b.upper
            assert b.estimate <= b.upper


def _estimator(structure):
    return CardinalityEstimator(structure_stats(structure))


class TestCardinalityEstimator:
    def test_single_positive_atom_is_exact(self):
        structure = path_graph(5)
        bound = _estimator(structure).count_bound(
            ("x", "y"), parse_formula("E(x, y)")
        )
        assert bound.exact
        assert bound.lower == len(structure.relation("E"))

    def test_space_is_always_a_ceiling(self):
        structure = path_graph(4)
        bound = _estimator(structure).count_bound(
            ("x", "y"), parse_formula("E(x, y) | !E(x, y)")
        )
        assert bound.upper is not None
        assert bound.upper <= 16

    def test_empty_relation_estimates_are_exact(self):
        structure = Structure(
            Signature.of(E=2, R=1), [1, 2, 3], {"E": [(1, 2)], "R": []}
        )
        estimator = _estimator(structure)
        alone = estimator.count_bound(("x",), parse_formula("R(x)"))
        assert alone.exact and alone.upper == 0
        # An empty positive conjunct gates the whole conjunction.
        gated = estimator.count_bound(
            ("x", "y"), parse_formula("E(x, y) & R(x)")
        )
        assert gated.exact and gated.upper == 0

    def test_bounds_contain_true_count(self):
        engine = Foc1Evaluator()
        structure = graph_structure(
            [1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (1, 5), (2, 5)]
        )
        estimator = _estimator(structure)
        for text, variables in (
            ("E(x, y)", ("x", "y")),
            ("E(x, y) & E(y, z)", ("x", "y", "z")),
            ("exists z. E(x, z) & E(z, y)", ("x", "y")),
            ("E(x, y) | E(y, x)", ("x", "y")),
            ("!E(x, y)", ("x", "y")),
        ):
            phi = parse_formula(text)
            truth = engine.count(structure, phi, list(variables))
            bound = estimator.count_bound(variables, phi)
            assert bound.lower <= truth, text
            assert bound.upper is None or truth <= bound.upper, text


NEGATION_FREE = (
    ("E(x, y)", ("x", "y")),
    ("E(x, y) & E(y, z)", ("x", "y", "z")),
    ("exists z. E(x, z) & E(z, y)", ("x", "y")),
    ("E(x, y) | E(y, x)", ("x", "y")),
)


@st.composite
def graph_and_new_edge(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    vertices = list(range(1, n + 1))
    pairs = [(u, v) for u in vertices for v in vertices if u < v]
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
    )
    structure = graph_structure(vertices, edges)
    u = draw(st.sampled_from(vertices))
    v = draw(st.sampled_from(vertices))
    return structure, (u, v)


class TestEstimatorSoundnessProperties:
    @pytest.mark.parametrize("text,variables", NEGATION_FREE)
    @given(case=graph_and_new_edge())
    @settings(max_examples=30, deadline=None)
    def test_insertion_never_decreases_provable_lower_bound(
        self, case, text, variables
    ):
        structure, tup = case
        phi = parse_formula(text)
        before = _estimator(structure).count_bound(variables, phi)
        grown = structure.with_tuple("E", tup)
        after = _estimator(grown).count_bound(variables, phi)
        assert after.lower >= before.lower

    @given(st.integers(min_value=1, max_value=8), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_empty_relation_count_is_exactly_zero(self, n, arity_vars):
        structure = Structure(
            Signature.of(E=2, R=1), list(range(1, n + 1)), {"E": [], "R": []}
        )
        variables = ("x", "y")
        bound = _estimator(structure).count_bound(
            variables, parse_formula("E(x, y)")
        )
        assert bound.exact
        assert bound.lower == bound.upper == bound.estimate == 0.0
